// Package kcas is the repository's single k-word compare-and-swap
// engine: one descriptor layout, one pool and one per-thread context
// backing both the paper's software DCAS (§3.2.2, Algorithm 4) and the
// §8 n-word extension that generalizes composed moves to n objects.
//
// The two protocols used to live in separate packages (dcas, mcas) with
// near-identical descriptor lifecycles written twice. Here a descriptor
// is always a Desc with N entries drawn from the one pool; what differs
// is only how it is decided:
//
//   - Pair fast path (AllocPair/ExecutePair, reference kind KindDCAS):
//     Algorithm 4 verbatim over Entries[0] (ptr1) and Entries[1] (ptr2).
//     It reports which word failed, carries the initiator's hazard
//     pointers for helpers (line D3), needs no RDCSS sub-descriptors,
//     and costs two fewer CASs than Harris et al. [9] uncontended —
//     pairwise Move keeps exactly its pre-unification cost.
//
//   - General path (AllocK/Execute, reference kind KindMCAS): Harris,
//     Fraser and Pratt's practical CASN [9] — each word is acquired with
//     an RDCSS conditional on the operation still being undecided, the
//     status word decides the whole operation, then the words are
//     released. RDCSS sub-descriptors are not allocated: the RDCSS
//     descriptor for entry i of operation M is fully determined by
//     (M, i), so it is encoded directly in the word reference
//     (kind = KindRDCSS, entry index in the mark field).
//
// Both paths share the sequence-stamped ABA-safe slot reuse, the
// per-thread compacting FIFO free ring and hazard-scan retirement. A
// helper that encounters a reference of
// either operation kind — or an RDCSS sub-reference — resolves it
// through this one package (Ctx.Read), so cross-kind helping needs no
// foreign-function hook.
//
// The status word reports failure slots: the pair path mirrors the
// paper's FIRSTFAILED/SECONDFAILED, the general path reports the index
// of the entry whose word did not match, so core can re-run exactly the
// operations from the failed slot onward.
package kcas

import (
	"sync/atomic"

	"repro/internal/word"
)

// MaxEntries bounds the number of words one descriptor may cover; MoveN
// moves to at most MaxEntries-1 targets, TransferN moves MaxEntries/2
// keys.
const MaxEntries = 8

// Result is the outcome of a pair (DCAS) operation, as defined by the
// semantics in Algorithm 1 of the paper.
type Result uint8

const (
	// Success: both words matched their old values and were atomically
	// replaced by their new values.
	Success Result = iota
	// FirstFailed: entry 0's word did not match its old value; nothing
	// was changed (and the descriptor was never announced).
	FirstFailed
	// SecondFailed: entry 1's word did not match; nothing was changed.
	SecondFailed
)

func (r Result) String() string {
	switch r {
	case Success:
		return "SUCCESS"
	case FirstFailed:
		return "FIRSTFAILED"
	case SecondFailed:
		return "SECONDFAILED"
	}
	return "UNKNOWN"
}

// Status-word states, shared by both protocols. Undecided is the zero
// value; the others are small even constants that can never collide
// with a node or descriptor reference (node indexes below
// arena.ReservedIndexes are never allocated; references are odd or
// larger). The pair path may additionally park a *marked descriptor
// reference* in the status word — the intermediate decision witness of
// the paper's Lemma 1; the general path uses statusFailed(i) =
// statusFailedBase + 8*i to report the failing entry. Each descriptor
// incarnation runs exactly one protocol (fixed by its reference kind),
// so the two failure encodings never meet in one descriptor.
const (
	statusUndecided    uint64 = 0
	statusSecondFailed uint64 = 2 // pair path only
	statusSuccess      uint64 = 4
	statusFailedBase   uint64 = 6 // general path: 6 + 8*i
)

func statusFailed(i int) uint64 { return statusFailedBase + uint64(i)*8 }
func failedIndex(st uint64) int { return int((st - statusFailedBase) / 8) }
func decided(st uint64) bool    { return st != statusUndecided }

// Entry is one word of a k-word CAS: replace Old with New in *Ptr. HP
// is the arena index of the node containing Ptr (0 for object anchors),
// used to mirror the initiator's hazard protection while helping.
type Entry struct {
	Ptr      *word.Word
	Old, New uint64
	HP       uint64
}

// Desc is the unified descriptor. N and Entries[0..N) (and, on the
// general path, order) are written by the initiating process before the
// descriptor is announced and are read-only afterwards. The pair path
// uses Entries[0] as ptr1 and Entries[1] as ptr2 of Algorithm 1's
// DCASDesc; status is its res word.
type Desc struct {
	N       int
	Entries [MaxEntries]Entry
	order   [MaxEntries]uint8 // general phase-1 order (ascending address)

	status word.Word

	// self holds the descriptor's current unmarked reference while the
	// descriptor is live and 0 while it is free. Helpers validate it
	// after the hpd protection (line D36) so a reference to a recycled
	// slot is never trusted.
	self atomic.Uint64

	// seq is the allocation sequence for this slot. Slots are owned by
	// the thread that carved them and never migrate, so seq needs no
	// atomicity.
	seq uint64

	// owner is the initiating thread's id, stamped at alloc. Helpers
	// read it (after validating self) to attribute help events to
	// their victim; atomic because a stale helper's read may race the
	// slot's next incarnation being stamped.
	owner atomic.Int32
}

// Owner reports the thread id that allocated this descriptor
// incarnation — the victim of any help event on it.
func (d *Desc) Owner() int32 { return d.owner.Load() }

// Decided reports whether the descriptor's operation has completed: an
// undecided status is exactly "never announced" on both paths (the pair
// path returns FirstFailed without publishing; the general path cannot
// leave Execute undecided), which is what recycle routing needs.
func (d *Desc) Decided() bool { return decided(d.status.Load()) }

// Status returns the raw status word (tests).
func (d *Desc) Status() uint64 { return d.status.Load() }
