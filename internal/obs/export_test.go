package obs

// parkPut is put stopped between its two sequence stores: slot s reads
// odd, as it does while its writer is descheduled mid-write, until
// finish stores the payload and closes the slot.
func (r *ring) parkPut(s uint64, vals ...uint64) (finish func()) {
	w := r.slot(s)
	seq := w[0].Load() + 1
	w[0].Store(seq)
	return func() {
		for i, v := range vals {
			w[1+i].Store(v)
		}
		w[0].Store(seq + 1)
	}
}

// parkRecord is Record stopped inside its ring write; finish completes
// it.
func (t *Tracer) parkRecord(tid int, k EventKind, peer int32, ref uint64) (finish func()) {
	r := &t.rings[tid]
	i := r.n.Load()
	put := r.parkPut(i&(r.size()-1), uint64(t.clock.Now()),
		uint64(k)|uint64(uint32(peer))<<32, ref, r.req)
	return func() { put(); r.n.Store(i + 1) }
}

// parkFinish is Finish stopped inside both its ring writes, the
// completed span's and the exemplar it replaces; finish completes it.
func (s *Spans) parkFinish(worker int, sp Span) (finish func()) {
	w := &s.workers[worker]
	var v [spanWords]uint64
	w.encode(&sp, &v)
	i := w.done.n.Load()
	done := w.done.parkPut(i&(w.done.size()-1), v[:]...)
	top := func() {}
	if slot, ok := w.admit(sp.WallNS); ok {
		top = w.top.parkPut(slot, v[:]...)
	}
	return func() { done(); w.done.n.Store(i + 1); top() }
}
