package core

import "fmt"

// PublishedSlots reports how many of t's hazard slots publish something:
// the insert-side container slots (SlotIns0..SlotInsAux) and the
// remove-side ones (SlotRem0..SlotRemAux) apart, since list operations
// leave theirs published by design, and every other slot — helping
// mirrors, chain holds and the descriptor-domain slots — together.
func (t *Thread) PublishedSlots() (ins, rem, other int) {
	for s := 0; s < nodeSlotsPerThread; s++ {
		if t.rt.nodeDom.Get(t.id, s) == 0 {
			continue
		}
		switch {
		case s <= SlotInsAux:
			ins++
		case s <= SlotRemAux:
			rem++
		default:
			other++
		}
	}
	for s := 0; s < descSlotsPer; s++ {
		if t.rt.descDom.Get(t.id, s) != 0 {
			other++
		}
	}
	return ins, rem, other
}

// SlotRuleError checks Definition 2's slot rule (§5.1) while t decides
// its own composition, that is while its descriptor is published in the
// chain's first word: every captured entry's node must be published in
// a container slot of its own step's side — SlotIns* for an insert,
// SlotRem* for a remove — or in the entry's chain hold slot. deciding
// is false at any other moment, when there is nothing to check: t runs
// no composition, or one not yet captured whole, or one already
// decided. Only t's own goroutine may call it (a fault.Injector firing
// at kcas-publish does).
func (t *Thread) SlotRuleError() (deciding bool, err error) {
	d := t.desc
	if d == nil || d.Entries[0].Ptr == nil || d.Entries[0].Ptr.Load() != t.dref {
		return false, nil
	}
	for j := range t.steps {
		node := d.Entries[j].HP
		if node == 0 { // the word is an object's anchor, which needs no protection
			continue
		}
		first, side := SlotIns0, "insert"
		if j == 0 || t.steps[j].rem != nil {
			first, side = SlotRem0, "remove"
		}
		published := t.rt.nodeDom.Get(t.id, slotChainHoldBase+j) == node
		for s := first; s < first+3; s++ {
			published = published || t.rt.nodeDom.Get(t.id, s) == node
		}
		if !published {
			return true, fmt.Errorf("entry %d (%s of %d steps): node %#x is in no %s-side or hold slot",
				j, side, len(t.steps), node, side)
		}
	}
	return true, nil
}
