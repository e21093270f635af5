package kcas

import (
	"fmt"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

// The general k-word path: Harris/Fraser/Pratt CASN with inline RDCSS
// sub-descriptors. See the package comment for the construction.

// rdcssRef builds the reference encoding the RDCSS sub-descriptor for
// entry i of the operation referenced by mref.
func rdcssRef(mref uint64, i int) uint64 {
	return word.MarkDesc(word.MakeDesc(word.KindRDCSS, word.DescIndex(mref), word.DescSeq(mref)), i)
}

// kRefOf recovers the full KindMCAS reference from one of its RDCSS
// references.
func kRefOf(rref uint64) uint64 {
	return word.MakeDesc(word.KindMCAS, word.DescIndex(rref), word.DescSeq(rref))
}

// entryOf recovers the entry index from an RDCSS reference.
func entryOf(rref uint64) int { return int(word.DescTID(rref)) - 1 }

// wordAddr is the one order all operations acquire words in, so two over
// overlapping words cannot wait on each other in a cycle. A word escapes
// to the heap through Desc.Entries, and Go's heap does not move.
func wordAddr(w *word.Word) uintptr { return uintptr(unsafe.Pointer(w)) }

// Execute runs the k-word CAS described by d as initiator. d must come
// from AllocK on this context, with Entries[0..N) populated and
// targeting pairwise distinct words. On failure it reports the index of
// the entry whose word did not match.
func (c *Ctx) Execute(d *Desc, ref uint64) (bool, int) {
	if d.N < 1 || d.N > MaxEntries {
		panic(fmt.Sprintf("kcas: %d entries out of range", d.N))
	}
	// Phase-1 acquisition order: ascending address, so concurrent
	// operations over overlapping word sets cannot chase each other in a
	// cycle. The sort leaves equal words adjacent, where one comparison
	// per step finds a duplicate.
	ord := d.order[:d.N]
	for i := range ord {
		ord[i] = uint8(i)
		for j := i; j > 0 && wordAddr(d.Entries[ord[j]].Ptr) < wordAddr(d.Entries[ord[j-1]].Ptr); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for i := 1; i < len(ord); i++ {
		if d.Entries[ord[i]].Ptr == d.Entries[ord[i-1]].Ptr {
			panic("kcas: duplicate target word; operations must be on distinct objects")
		}
	}
	// Telemetry: the general path counts every Execute as a publish
	// (phase 1 installs begin immediately) and the initiator records the
	// outcome, so (quiesced) publishes == commits + aborts here too.
	// run()'s own fault hook fires for helpers as well, so the counters
	// live here, on the initiator-only path.
	c.obsEvent(obs.KCASPublish, obs.EvPublish, -1, ref)
	st, _, _ := c.run(d, ref, false)
	if st == statusSuccess {
		c.obsEvent(obs.KCASCommit, obs.EvCommit, -1, ref)
		return true, -1
	}
	c.obsEvent(obs.KCASAbort, obs.EvAbort, -1, ref)
	return false, failedIndex(st)
}

// run drives the operation to a decision and releases its words; both
// initiators and helpers execute it. ref is the unmarked KindMCAS
// reference. A helper helps one descriptor at a time, because it has
// one hpd slot and one set of mirrors: when its phase 1 meets another
// descriptor reference, of any kind, run returns that word and reference
// undecided, and helpOnce drops d's protection before helping it. An
// initiator protects nothing for its own descriptor and helps in place.
func (c *Ctx) run(d *Desc, ref uint64, helping bool) (st uint64, bw *word.Word, bv uint64) {
	if d.status.Load() == statusUndecided {
		desired := statusSuccess
	phase1:
		for _, i := range d.order[:d.N] {
			e := &d.Entries[int(i)]
			for {
				v := c.rdcssTry(d, ref, int(i))
				if v == e.Old || word.SameDesc(v, ref) {
					// Acquired (or already acquired by a helper).
					break
				}
				if word.IsDesc(v) {
					if helping {
						return statusUndecided, e.Ptr, v
					}
					c.help(e.Ptr, v) // help the other operation, retry
					if d.status.Load() != statusUndecided {
						break phase1
					}
					continue
				}
				// Plain value mismatch: this entry's operation failed.
				desired = statusFailed(int(i))
				break phase1
			}
			if d.status.Load() != statusUndecided {
				break phase1
			}
		}
		// Acquisition done, decision pending: every target word holds a
		// reference to this (published) descriptor, so peers reading any
		// of them will help the operation to its decision and release.
		c.fire(fault.KCASAfterPublish)
		d.status.CAS(statusUndecided, desired)
	}

	// Phase 2: release every word to its new (success) or old (failure)
	// value. Expected values are the unmarked descriptor reference the
	// RDCSS promotions installed. A thread lost between the decision and
	// the releases leaves full references behind; any reader helps them
	// out via help (this same function, phase 2 only).
	c.fire(fault.KCASBeforeCommit)
	st = d.status.Load()
	success := st == statusSuccess
	for i := 0; i < d.N; i++ {
		e := &d.Entries[i]
		if success {
			e.Ptr.CAS(ref, e.New)
		} else {
			e.Ptr.CAS(ref, e.Old)
		}
	}
	return st, nil, 0
}

// rdcssTry attempts to acquire entry i for the operation: it installs
// the entry's RDCSS reference in place of the old value, then promotes
// it to the full descriptor reference if the operation is still
// undecided (reverting otherwise). It returns e.Old on acquisition and
// the conflicting value otherwise.
func (c *Ctx) rdcssTry(d *Desc, mref uint64, i int) uint64 {
	e := &d.Entries[i]
	rref := rdcssRef(mref, i)
	for {
		if e.Ptr.CAS(e.Old, rref) {
			c.promote(d, mref, i)
			return e.Old
		}
		v := e.Ptr.Load()
		if v == e.Old {
			// The install CAS lost a race but the word holds the old
			// value again (an ABA flip in between). Returning e.Old here
			// would claim an acquisition that never happened — phase 2
			// would then skip this entry entirely. Retry the install.
			continue
		}
		if v == rref {
			// Another helper installed the identical sub-descriptor;
			// completing it is idempotent.
			c.promote(d, mref, i)
			continue
		}
		return v
	}
}

// promote finishes an installed RDCSS: if the operation is still
// undecided the word becomes the full descriptor reference, otherwise it
// reverts to the old value. A promotion that races the decision can
// strand the descriptor reference in the word; phase 2 retries by
// helpers and the retire-time scrub clean it up, exactly like the pair
// protocol's lazy stray cleanup.
func (c *Ctx) promote(d *Desc, mref uint64, i int) {
	e := &d.Entries[i]
	rref := rdcssRef(mref, i)
	if d.status.Load() == statusUndecided {
		e.Ptr.CAS(rref, mref)
		// Re-check: if the operation got decided while we promoted, the
		// full reference we just installed must not keep readers helping
		// a finished operation; run phase 2 for this entry.
		if decided(d.status.Load()) {
			if d.status.Load() == statusSuccess {
				e.Ptr.CAS(mref, e.New)
			} else {
				e.Ptr.CAS(mref, e.Old)
			}
		}
	} else {
		e.Ptr.CAS(rref, e.Old)
	}
}

// help resolves the descriptor reference v found in word w, of any
// kind, and then every descriptor that blocks it, one at a time; the
// caller re-reads w.
func (c *Ctx) help(w *word.Word, v uint64) {
	for w != nil {
		w, v = c.helpOnce(w, v)
	}
}

// helpOnce makes one protected helping attempt (lines D35–D37): protect
// the descriptor with the thread's one hpd slot, revalidate the word,
// enter the descriptor, mirror the initiator's hazard pointers, then
// help by the reference's kind. When a k-word phase 1 meets another
// descriptor, helpOnce clears its protections before it returns that
// descriptor's word and reference, so the helper never goes on with a
// descriptor it no longer protects.
func (c *Ctx) helpOnce(w *word.Word, v uint64) (bw *word.Word, bv uint64) {
	idx := word.DescIndex(v)
	c.blocks.dom.Protect(c.tid, c.slots.HPD, idx+1) // D35: hpd ← result
	defer c.blocks.dom.Clear(c.tid, c.slots.HPD)
	if w.Load() != v { // D36: if hpd = *ptr
		return nil, 0
	}
	d := c.blocks.at(idx)
	kind := word.DescKind(v)
	ref := word.UnmarkDesc(v)
	if kind == word.KindRDCSS {
		ref = kRefOf(v)
	}
	if !d.enter(ref) {
		// The owner closed or re-armed the slot between our load and
		// the hpd store; the reference is stale and this read raced a
		// cleanup — re-read.
		c.checkStuck(w, v)
		return nil, 0
	}
	if kind == word.KindRDCSS {
		// Promote or revert the sub-descriptor; reads no node.
		if i := entryOf(v); i >= 0 && i < d.N {
			c.promote(d, ref, i)
		}
		return nil, 0
	}
	// D3: mirror the initiator's hazard pointers into this thread's node
	// slots. If the operation is still undecided below, its initiator is
	// still inside it and holds its own protections, so these mirrors
	// become visible to any future hazard scan before the initiator's
	// slots are cleared (Lemma 6).
	n := d.N
	for i := 0; i < n; i++ {
		c.nodeDom.Protect(c.tid, c.slots.MirrorBase+i, d.Entries[i].HP)
	}
	// Help-enter attribution: helper = this thread, victim = initiator.
	c.obsEvent(obs.KCASHelp, obs.EvHelp, c.blocks.owner(idx), ref)
	if kind == word.KindDCAS {
		c.dcas(d, v, false) // D37: help
	} else {
		_, bw, bv = c.run(d, ref, true)
	}
	for i := 0; i < n; i++ {
		c.nodeDom.Clear(c.tid, c.slots.MirrorBase+i)
	}
	return bw, bv
}

// Read is the read operation of Algorithm 4 (lines D32–D39) extended to
// every descriptor kind the engine can announce: it helps any pair,
// k-word or RDCSS descriptor found in w and returns a plain value.
func (c *Ctx) Read(w *word.Word) uint64 {
	v := w.Load()
	for word.IsDesc(v) {
		c.help(w, v)
		v = w.Load()
	}
	return v
}
