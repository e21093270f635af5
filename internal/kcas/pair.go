package kcas

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

// ExecutePair runs the DCAS described by d as the initiating process
// (line D1 with initiator = true). d must have been obtained from
// AllocPair on this context and fully populated (Entries[0] = ptr1 side,
// Entries[1] = ptr2 side, optionally their HPs).
//
// The caller remains responsible for recycling d afterwards: FreeDirect
// when the result is FirstFailed (the descriptor was never announced),
// Retire otherwise.
func (c *Ctx) ExecutePair(d *Desc, ref uint64) Result {
	r := c.dcas(d, ref, true)
	// Telemetry: the initiator records the announced operation's
	// outcome, so (quiesced) publishes == commits + aborts. FirstFailed
	// was never announced and counts as neither.
	switch r {
	case Success:
		c.obsEvent(obs.KCASCommit, obs.EvCommit, -1, ref)
	case SecondFailed:
		c.obsEvent(obs.KCASAbort, obs.EvAbort, -1, ref)
	}
	return r
}

// dcas is Algorithm 4. The paper writes cas(addr, new, old); every CAS
// below uses Go order, CAS(addr, old, new). Line numbers D2..D31 refer
// to the paper's listing. The descriptor's status word is the paper's
// res field.
func (c *Ctx) dcas(d *Desc, ref uint64, initiator bool) Result {
	e1, e2 := &d.Entries[0], &d.Entries[1]
	if !initiator { // D2
		// D3: mirror the initiator's hazard pointers into this thread's
		// node slots. If res is still undecided below, the initiating
		// process is still inside its operation and holds its own
		// protections, so these mirrors become visible to any future
		// hazard scan before the initiator's slots are cleared (Lemma 6).
		c.nodeDom.Protect(c.tid, c.slots.PairMirror1, e1.HP)
		c.nodeDom.Protect(c.tid, c.slots.PairMirror2, e2.HP)
	}

	if r := d.status.Load(); r == statusSuccess || r == statusSecondFailed { // D4
		// The operation is decided; only lazy cleanup of a residual
		// descriptor reference remains. A marked reference was found in
		// ptr2 (only line D14 installs marked refs), an unmarked one in
		// ptr1 (only line D10 installs unmarked refs).
		if word.IsMarkedDesc(ref) { // D5
			if e2.Ptr.CAS(ref, e2.Old) { // D6
				c.reg.Inc(c.tid, obs.KCASStrayCleanup)
			}
		} else if !initiator {
			if e1.Ptr.CAS(ref, e1.Old) { // D8
				c.reg.Inc(c.tid, obs.KCASStrayCleanup)
			}
		}
		return resultOf(r) // D9
	}

	if initiator {
		if !e1.Ptr.CAS(e1.Old, ref) { // D10: announce
			return FirstFailed // D11: never announced; nobody will help
		}
		// The descriptor is now published and undecided: from here on any
		// peer that reads ptr1 helps the operation to completion, so the
		// initiator may stall or die without blocking the system. The
		// publish event is recorded before the fault hook so a thread
		// parked or killed here has already left its announcement in the
		// trace.
		c.obsEvent(obs.KCASPublish, obs.EvPublish, -1, ref)
		c.fire(fault.KCASAfterPublish)
	}

	mdesc := word.MarkDesc(ref, c.tid) // D13
	p2set := e2.Ptr.CAS(e2.Old, mdesc) // D14
	if !p2set {                        // D15
		cur := e2.Ptr.Load() // D16
		if !word.SameDesc(cur, ref) {
			// ptr2 does not hold this descriptor in any form: the CAS
			// failed because *ptr2 != old2. Try to declare failure.
			d.status.CAS(statusUndecided, statusSecondFailed) // D17
		}
		switch r := d.status.Load(); r {
		case statusSuccess:
			return Success // D18–D19
		case statusSecondFailed: // D20
			// Revert the announcement (ptr1 holds the unmarked ref).
			e1.Ptr.CAS(word.UnmarkDesc(ref), e1.Old) // D21
			return SecondFailed                      // D22
		}
		// Some process's marked descriptor is (or was) pinned in ptr2.
		// Promote the *observed* marked descriptor into res — not our
		// own, which never made it into ptr2; promoting ours would let
		// line D29 strand ptr2. Before the decision
		// the pinned descriptor is unique, so cur is the right witness.
		if word.SameDesc(cur, ref) && word.IsMarkedDesc(cur) {
			d.status.CAS(statusUndecided, cur) // D24 (observed form)
		}
	} else {
		// Our marked descriptor reached ptr2; race to make it the
		// decision witness.
		d.status.CAS(statusUndecided, mdesc) // D24
	}

	r := d.status.Load()
	if r == statusSecondFailed { // D25
		if p2set {
			// We installed our marked descriptor but were not first to
			// set res: change ptr2 back to its old value (Lemma 3).
			if e2.Ptr.CAS(mdesc, e2.Old) {
				c.reg.Inc(c.tid, obs.KCASLateP2)
			}
		}
		return SecondFailed // D27
	}
	// r is a marked descriptor (the witness) or already SUCCESS.
	// Decision fixed, release CASes pending: a thread lost here leaves
	// decided-but-unreleased words that any helper (D4/D28–D30 on its own
	// pass) or the retire-time scrub completes.
	c.fire(fault.KCASBeforeCommit)
	e1.Ptr.CAS(word.UnmarkDesc(ref), e1.New) // D28
	if word.IsDesc(r) {
		e2.Ptr.CAS(r, e2.New) // D29: only the witness form can succeed here
	}
	d.status.Store(statusSuccess) // D30
	return Success                // D31
}

func resultOf(res uint64) Result {
	if res == statusSuccess {
		return Success
	}
	return SecondFailed
}

// HelpPairRef performs one protected helping attempt for the pair
// descriptor reference v found in word w: protect with hpd (D35),
// revalidate that w still holds v (D36), validate the descriptor's
// identity, then help (D37). It returns without action when validation
// fails; the caller re-reads w.
func (c *Ctx) HelpPairRef(w *word.Word, v uint64) {
	idx := word.DescIndex(v)
	c.blocks.dom.Protect(c.tid, c.slots.PairHPD, idx+1) // D35: hpd ← result
	defer c.blocks.dom.Clear(c.tid, c.slots.PairHPD)
	if w.Load() != v { // D36: if hpd = *ptr
		return
	}
	d := c.blocks.at(idx)
	if d.self.Load() != word.UnmarkDesc(v) {
		// The slot was recycled between our load and the hpd store; the
		// reference is stale. The word no longer being protected by the
		// retire check means this read raced a cleanup — re-read.
		c.checkStuck(w, v)
		return
	}
	// Help-enter attribution: this thread (helper) is completing the
	// operation announced by the block's owner (victim).
	c.obsEvent(obs.KCASHelp, obs.EvHelp, c.blocks.owner(idx), word.UnmarkDesc(v))
	c.dcas(d, v, false) // D37: help
	c.nodeDom.Clear(c.tid, c.slots.PairMirror1)
	c.nodeDom.Clear(c.tid, c.slots.PairMirror2)
}

// stuckSpins bounds how often a stale descriptor reference may be
// re-observed in the same word before we declare a reclamation invariant
// violation. A stale reference can legitimately be observed while its
// cleanup CAS is in flight, but it cannot persist: the retire path
// scrubs every target word before a descriptor is freed.
const stuckSpins = 1 << 22

// stuckState is per-context diagnostic state for checkStuck.
type stuckState struct {
	w     *word.Word
	v     uint64
	count int
}

func (c *Ctx) checkStuck(w *word.Word, v uint64) {
	if c.stuck.w == w && c.stuck.v == v {
		c.stuck.count++
		if c.stuck.count > stuckSpins {
			panic(fmt.Sprintf("kcas: stale descriptor reference %#x pinned in word; reclamation invariant violated", v))
		}
		return
	}
	c.stuck = stuckState{w: w, v: v, count: 1}
}
