package core

// Batch-flush support: the thread-local hooks behind internal/batch's
// MoveBuffer. A flush brackets a run of back-to-back moves on one thread
// and amortizes their fixed per-move costs:
//
//   - hazard publication: container operations normally clear their
//     hazard slots on return; inside a flush those clears are deferred
//     (the next move overwrites the slots it needs anyway) and the
//     container slots are cleared once in EndBatchFlush. Protections
//     are conservative, so deferring a clear only delays reclamation of
//     a few nodes until the flush ends — it can never unprotect early.
//   - descriptor recycling: announced descriptors retired inside the
//     flush are parked and recycled by one shared hazard snapshot in
//     EndBatchFlush (kcas.Ctx.EndFlush) instead of one retire cycle
//     per move; sequence-stamped references keep the early reuse
//     ABA-safe.
//
// A flush is NOT a transaction: every move inside it remains its own
// individually-linearizable operation. The brackets change only where
// bookkeeping happens, never where an operation linearizes.

// RemovePreparer is optionally implemented by move-ready sources that
// can cheaply locate a removable element before a move commits.
// PrepareRemove reports whether an element matching key was observable
// at some instant during the call (false: the source was observed
// empty / without the key). It must not publish protections the caller
// is expected to hold and must be safe outside any move. The answer is
// a snapshot: a concurrent operation may change the source immediately
// after.
type RemovePreparer interface {
	PrepareRemove(t *Thread, key uint64) bool
}

// InsertPreparer is the target-side twin: PrepareInsert reports whether
// the target could accept an insert under key at some instant during
// the call (false: e.g. the key was observed occupied), and may perform
// cheap helping that clears the insert path (such as swinging a lagging
// queue tail).
type InsertPreparer interface {
	PrepareInsert(t *Thread, key uint64) bool
}

// BeginBatchFlush enters batch-flush mode: hazard clears are deferred
// and retired descriptors are parked for EndBatchFlush's shared recycle
// pass. It must be paired with EndBatchFlush on the same thread and
// must not be nested or started inside a move.
func (t *Thread) BeginBatchFlush() {
	if t.batchActive {
		panic("core: nested batch flush")
	}
	if t.MoveInFlight() {
		panic("core: batch flush started inside a move")
	}
	t.batchActive = true
}

// EndBatchFlush leaves batch-flush mode: the container hazard slots are
// cleared once for the whole flush and the flush's descriptors are
// recycled under one hazard snapshot.
func (t *Thread) EndBatchFlush() {
	if !t.batchActive {
		panic("core: EndBatchFlush without BeginBatchFlush")
	}
	if t.MoveInFlight() {
		panic("core: EndBatchFlush inside a move")
	}
	t.finishBatchFlush()
}

// AbortBatchFlush releases batch-flush mode while a panic unwinds
// through a flush. Unlike EndBatchFlush it tolerates a move the panic
// left in flight: the priority is that the thread not keep hazard
// clears disabled forever (a silent, unbounded reclamation stall) —
// the parked nodes and descriptors are released exactly as a normal
// flush end would. A no-op outside a flush.
func (t *Thread) AbortBatchFlush() {
	if !t.batchActive {
		return
	}
	t.finishBatchFlush()
}

// finishBatchFlush is the shared tail of EndBatchFlush/AbortBatchFlush.
func (t *Thread) finishBatchFlush() {
	t.batchActive = false
	// Clear the container slots the flush left published (the helping
	// mirror slots are published and cleared by the helping paths
	// themselves, which bypass the deferral)...
	for s := SlotIns0; s <= SlotRemAux; s++ {
		t.setSlot(s, 0)
	}
	// ...then hand the flush's unlinked nodes to the reclaimer: with the
	// stale protections gone, its scans see them unprotected right away.
	for _, ref := range t.batchNodes {
		t.cache.Retire(ref)
	}
	t.batchNodes = t.batchNodes[:0]
	t.kctx.EndFlush()
}

// batchScanGuard is the retire-list headroom below which an in-flush
// RetireNode defers to EndBatchFlush instead of handing off directly: a
// scan could fire before the flush's deferred hazard clears run, which
// would park every still-protected node for another full cycle. Sized
// just above the largest common flush (each move retires about one
// node), and below the retire threshold so flushes with ample headroom
// keep the cheaper direct hand-off.
const batchScanGuard = 72

// BatchActive reports whether the thread is inside a batch flush
// (tests and assertions).
func (t *Thread) BatchActive() bool { return t.batchActive }
