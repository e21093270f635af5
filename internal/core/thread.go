package core

import (
	"repro/internal/arena"
	"repro/internal/fault"
	"repro/internal/kcas"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/word"
)

// Thread is the per-goroutine execution context. It carries the paper's
// thread-local state of a composition (the descriptor desc and the
// chain of steps that carries the rest of Algorithm 3's variables), the
// thread's hazard-pointer slots, its memory-manager cache and its
// descriptor context.
//
// A Thread must be used by exactly one goroutine at a time.
type Thread struct {
	id    int
	rt    *Runtime
	cache *mm.Cache
	kctx  *kcas.Ctx

	exhausted bool // a node allocation failed since the last Exhausted

	// Composition state (chain.go): a chain of removes and inserts whose
	// linearization CASes are captured one entry of desc per step and
	// decided together. desc is non-nil exactly while a composition runs.
	desc    *kcas.Desc
	dref    uint64
	steps   []chainStep // steps[1:] of the chain; step 0's remover is runChain's argument
	vals    [kcas.MaxEntries]uint64
	reached [kcas.MaxEntries]bool
	failed  int  // entry the latest decision failed at, -1 if it succeeded
	abort   bool // the chain aborts: every step unwinds with FAbort
	depth   int  // entry index the active step fills; 0 between chains

	// hz shadows what each of this thread's node-domain hazard slots
	// publishes (see setSlot); the helping-mirror entries are unused.
	hz [nodeSlotsPerThread]uint64

	// flt mirrors Config.Fault for the injection point that lives above
	// the kcas engine (map grow). Nil in production.
	flt fault.Injector

	// reg/trc mirror the runtime's telemetry surfaces (Config.Obs).
	// Nil when disabled; every hook is then one nil check.
	reg *obs.Registry
	trc *obs.Tracer

	// xfer holds the values of the thread's latest successful
	// TransferN, which returns it.
	xfer [kcas.MaxEntries / 2]uint64

	// Tail pad: keeps Thread a whole number of cache lines
	// (TestThreadOwnsItsLines).
	_ [32]byte
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

// AllocNode returns a fresh node reference with zeroed fields, or
// word.Nil when the node arena is exhausted; the thread then records the
// failure for Exhausted. Every caller allocates in an operation's init
// phase and fails the operation on word.Nil before publishing anything,
// so a surrounding move aborts by lines M15–M18 and changes nothing.
func (t *Thread) AllocNode() uint64 {
	ref := t.cache.Alloc()
	if ref == word.Nil {
		t.exhausted = true
	}
	return ref
}

// AllocNodeQuiet is AllocNode for a node the caller can do without (the
// hash map's bucket sentinels): a failure is not recorded, so Exhausted
// keeps reporting exactly what the caller's operations recorded.
func (t *Thread) AllocNodeQuiet() uint64 { return t.cache.Alloc() }

// Exhausted reports whether a node allocation of this thread failed
// since the previous call, and clears the record. An operation that
// returned false while Exhausted reports true did not execute: it failed
// because the arena had no node for it, not because of its data, and
// may succeed once other threads free nodes.
func (t *Thread) Exhausted() bool {
	e := t.exhausted
	t.exhausted = false
	return e
}

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

// HoldNode publishes the node referenced by ref in the i-th chain hold
// slot (0 <= i < kcas.MaxEntries). The hold slots carry initiator-side
// per-entry protections across a composed chain: container operations
// reuse their fixed Ins/Rem slots, so the node captured at entry j would
// lose its protection as soon as a later same-side step overwrites
// those slots — while its word is still the target of the pending
// multi-word CAS. A chain therefore holds entry j only when a later
// step is on the same side, so a two-step chain (Move) holds nothing;
// tstack.SwapHeads holds every head it reads.
func (t *Thread) HoldNode(i int, ref uint64) {
	t.setSlot(slotChainHoldBase+i, word.NodeIndex(ref))
}

// ReleaseHolds clears all kcas.MaxEntries chain hold slots, whichever
// were taken; clearing one that holds nothing costs a shadow compare
// (setSlot). A chain wider than two steps, the only kind that holds,
// calls it once when it completes, either way.
func (t *Thread) ReleaseHolds() {
	for i := 0; i < kcas.MaxEntries; i++ {
		t.setSlot(slotChainHoldBase+i, 0)
	}
}

// --- shared-word access ----------------------------------------------------

// Read is the read operation of Algorithm 4 (lines D32–D39) extended to
// dispatch on descriptor kind: it helps any pair, k-word or RDCSS
// descriptor announced in w and returns a plain value. Read is just over
// the inliner's budget (go build -gcflags=-m=2 reports its cost), so the
// containers run its common case themselves: they load the word, test
// word.IsDesc, and call Read only when the word holds a descriptor.
func (t *Thread) Read(w *word.Word) uint64 {
	v := w.Load()
	if v&1 == 0 { // word.IsDesc
		return v
	}
	return t.kctx.Read(w)
}

// CAS performs a plain CAS on a shared word (used for non-linearization
// CASes such as the queue's tail swing, lines Q12/Q19/Q31).
func (t *Thread) CAS(w *word.Word, old, new uint64) bool { return w.CAS(old, new) }

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
// (desc ≠ 0 in the paper's terms). A container's linearization CAS is a
// plain CAS at its call site when it reports false (lines M20–M21,
// M38–M39), and SCASRemove or SCASInsert otherwise.
func (t *Thread) MoveInFlight() bool { return t.desc != nil }

// LostCAS counts a lost plain linearization CAS in this thread's stripe
// of cas_retries_total: a container calls it where its call-site plain
// CAS fails, as SCASRemove and SCASInsert count their FFalse results.
func (t *Thread) LostCAS() { t.reg.Inc(t.id, obs.CASRetry) }
