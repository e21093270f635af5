package core

import (
	"repro/internal/arena"
	"repro/internal/backoff"
	"repro/internal/fault"
	"repro/internal/kcas"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/word"
)

// Thread is the per-goroutine execution context. It carries the paper's
// thread-local variables from Algorithm 3 (desc, ltarget, ltkey,
// insfailed), the thread's hazard-pointer slots, its memory-manager
// cache and its descriptor context.
//
// A Thread must be used by exactly one goroutine at a time.
type Thread struct {
	id    int
	rt    *Runtime
	cache *mm.Cache
	kctx  *kcas.Ctx

	// Algorithm 3 thread-local variables for the two-object move.
	desc      *kcas.Desc
	descRef   uint64
	ltarget   Inserter
	ltkey     uint64
	insfailed bool

	// Chain state for the §8 k-word compositions (MoveN, TransferN): a
	// step program of removes and inserts whose linearization CASes are
	// captured one entry per step and decided by one k-word CAS.
	mdesc    *kcas.Desc
	mref     uint64
	mSteps   []chainStep // reused buffer; len = entry count
	mVals    [kcas.MaxEntries]uint64
	mReached [kcas.MaxEntries]bool
	mFailed  int
	mAbort   bool
	mDepth   int    // entry index the active step fills
	mElement uint64 // element threaded through the chain

	// seq is a private per-thread counter (see Seq).
	seq uint64

	// hz shadows what each of this thread's node-domain hazard slots
	// publishes (see setSlot); the helping-mirror entries are unused.
	hz [nodeSlotsPerThread]uint64

	bo        *backoff.Exp
	boEnabled bool

	// flt mirrors Config.Fault for the injection point that lives above
	// the kcas engine (map grow). Nil in production.
	flt fault.Injector

	// reg/trc mirror the runtime's telemetry surfaces (Config.Obs).
	// Nil when disabled; every hook is then one nil check.
	reg *obs.Registry
	trc *obs.Tracer

	// Tail pad: keeps Thread a whole number of cache lines
	// (TestThreadOwnsItsLines).
	_ [40]byte
}

// chainStep is one operation of a composed chain: exactly one of rem or
// ins is set. key is the operation's container key (ignored by unkeyed
// containers).
type chainStep struct {
	rem Remover
	ins Inserter
	key uint64
}

// ID returns the registered thread id (0-based).
func (t *Thread) ID() int { return t.id }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// --- memory management ---------------------------------------------------

// AllocNode returns a fresh node reference with zeroed fields.
func (t *Thread) AllocNode() uint64 { return t.cache.Alloc() }

// Node dereferences a node reference.
func (t *Thread) Node(ref uint64) *arena.Node { return t.rt.arena.Node(ref) }

// RetireNode hands back a node that was unlinked from a shared
// structure; it is recycled once no hazard pointer covers it.
func (t *Thread) RetireNode(ref uint64) { t.cache.Retire(ref) }

// FreeNodeDirect recycles a node that was never published (aborted
// inserts: lines Q15–Q17, S8–S10).
func (t *Thread) FreeNodeDirect(ref uint64) { t.cache.FreeDirect(ref) }

// FlushMemory drains this thread's retire lists (thread shutdown).
func (t *Thread) FlushMemory() {
	t.cache.Flush()
	t.kctx.Flush()
}

// --- hazard pointers -------------------------------------------------------

// setSlot publishes node index idx in one of this thread's node-domain
// slots unless the slot already publishes it. Hazard stores are fenced
// (an XCHG on amd64), and a slot is written by its owner alone, so the
// private shadow t.hz is exact and a store that would not change the
// published value is skipped: the hazard then stays continuously
// published, which protects at least as much as publishing it again —
// every scan that would have seen the repeated store also sees the
// original one. Only the container slots
// (SlotIns0..SlotRemAux) and the chain hold slots go through here; the
// helping mirrors are written by kcas.Ctx and are not shadowed.
func (t *Thread) setSlot(slot int, idx uint64) {
	if t.hz[slot] == idx {
		return
	}
	t.hz[slot] = idx
	t.rt.nodeDom.Protect(t.id, slot, idx)
}

// ProtectNode publishes the node referenced by ref in the given slot
// (SlotIns0..SlotRemAux). Passing ref 0 clears the slot.
func (t *Thread) ProtectNode(slot int, ref uint64) {
	t.setSlot(slot, word.NodeIndex(ref))
}

// ClearNode clears a hazard slot.
func (t *Thread) ClearNode(slot int) { t.setSlot(slot, 0) }

// ClearHazards clears every node hazard slot this thread owns; the
// exhaustion-recovery path calls it so stale protections don't delay
// reuse.
func (t *Thread) ClearHazards() {
	for s := 0; s < nodeSlotsPerThread; s++ {
		if s >= slotMirror1 && s < slotChainHoldBase {
			t.rt.nodeDom.Clear(t.id, s) // helping mirror: kcas.Ctx's slot, no shadow
			continue
		}
		t.setSlot(s, 0)
	}
}

// HoldNode publishes the node referenced by ref in the i-th chain hold
// slot (0 <= i < kcas.MaxEntries). The hold slots carry initiator-side
// per-entry protections across a composed chain: container operations
// reuse their fixed Ins/Rem slots, so without a hold the node captured
// at entry j would lose its protection as soon as a later same-side
// step overwrites those slots — while its word is still the target of
// the pending k-word CAS. Holds have their own release point
// (ReleaseHolds).
func (t *Thread) HoldNode(i int, ref uint64) {
	t.setSlot(slotChainHoldBase+i, word.NodeIndex(ref))
}

// ReleaseHolds clears the chain hold slots the chain actually took;
// composed operations call it once when their chain completes (either
// way).
func (t *Thread) ReleaseHolds() {
	for i := 0; i < kcas.MaxEntries; i++ {
		t.setSlot(slotChainHoldBase+i, 0)
	}
}

// --- shared-word access ----------------------------------------------------

// Read is the read operation of Algorithm 4 (lines D32–D39) extended to
// dispatch on descriptor kind: it helps any pair, k-word or RDCSS
// descriptor announced in w and returns a plain value. The common
// no-descriptor case stays small enough for the inliner; helping is the
// slow path.
func (t *Thread) Read(w *word.Word) uint64 {
	v := w.Load()
	if v&1 == 0 { // word.IsDesc spelled out to stay under the inline budget
		return v
	}
	return t.kctx.Read(w)
}

// CAS performs a plain CAS on a shared word (used for non-linearization
// CASes such as the queue's tail swing, lines Q12/Q19/Q31).
func (t *Thread) CAS(w *word.Word, old, new uint64) bool { return w.CAS(old, new) }

// --- backoff ----------------------------------------------------------------

// EnableBackoff turns on the §6 exponential backoff for this thread's
// operations; containers consult it on every failed retry.
func (t *Thread) EnableBackoff(start, max uint32) {
	t.bo = backoff.New(start, max)
	t.boEnabled = true
}

// DisableBackoff turns backoff off.
func (t *Thread) DisableBackoff() { t.boEnabled = false }

// BackoffWait waits (and doubles) if backoff is enabled; containers call
// it after a conflict.
func (t *Thread) BackoffWait() {
	if t.boEnabled {
		t.bo.Wait()
	}
}

// BackoffReset resets the wait time after a successful operation.
func (t *Thread) BackoffReset() {
	if t.boEnabled {
		t.bo.Reset()
	}
}

// Backoff returns this thread's backoff policy, or nil when disabled.
// The blocking baseline uses it for lock acquisition (§6).
func (t *Thread) Backoff() *backoff.Exp {
	if t.boEnabled {
		return t.bo
	}
	return nil
}

// Fault triggers injection point p if the runtime was configured with
// an injector (Config.Fault); internal/hashmap calls it at its grow
// window. The calling goroutine may be stalled, parked, or terminated
// here.
func (t *Thread) Fault(p fault.Point) {
	if t.trc != nil && p == fault.MapMidGrow {
		// The map traces through the same named point it injects at;
		// recording before firing means a thread parked or killed at the
		// point has already left its event.
		t.trc.Record(t.id, obs.EvMapGrow, -1, 0)
	}
	if t.flt != nil {
		t.flt.Fire(p, t.id)
	}
}

// MoveInFlight reports whether this thread is currently inside a move
// (desc ≠ 0 in the paper's terms); containers use it in assertions and
// tests observe it.
func (t *Thread) MoveInFlight() bool { return t.desc != nil || t.mdesc != nil }

// Seq returns a thread-local counter that increments on every call;
// containers use it to build unique sub-keys (e.g. the priority queue's
// uniquifier).
func (t *Thread) Seq() uint64 {
	t.seq++
	return t.seq
}
