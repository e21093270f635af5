package core

// PublishedSlots reports how many of t's hazard slots publish something:
// the container slots (SlotIns0..SlotRemAux) apart, since list
// operations leave theirs published by design, and every other slot —
// helping mirrors, chain holds and the descriptor-domain slots —
// together.
func (t *Thread) PublishedSlots() (container, other int) {
	for s := 0; s < nodeSlotsPerThread; s++ {
		if t.rt.nodeDom.Get(t.id, s) == 0 {
			continue
		}
		if s <= SlotRemAux {
			container++
		} else {
			other++
		}
	}
	for s := 0; s < descSlotsPer; s++ {
		if t.rt.descDom.Get(t.id, s) != 0 {
			other++
		}
	}
	return container, other
}
