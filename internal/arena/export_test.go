package arena

// reserve is Carve stopped after its bump: the range [start, end) is
// taken, and none of the slabs it falls in is installed. It stands for
// a carver descheduled between the two steps.
func (a *Arena) reserve(n int) (start, end uint64) {
	end = a.next.Add(uint64(n))
	return end - uint64(n), end
}

// installed counts the directory's installed slabs.
func (a *Arena) installed() int {
	n := 0
	for i := range a.slabs {
		if a.slabs[i].Load() != nil {
			n++
		}
	}
	return n
}
