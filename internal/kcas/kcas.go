// Package kcas is the repository's single k-word compare-and-swap
// engine: one descriptor layout, one descriptor store and one per-thread
// context backing both the paper's software DCAS (§3.2.2, Algorithm 4)
// and the §8 n-word extension that generalizes composed moves to n
// objects.
//
// The two protocols used to live in separate packages (dcas, mcas) with
// near-identical descriptor lifecycles written twice. Here a descriptor
// is always a Desc with N entries drawn from its thread's block; what
// differs is only how it is decided:
//
//   - Pair fast path (AllocPair/ExecutePair, reference kind KindDCAS):
//     Algorithm 4 verbatim over Entries[0] (ptr1) and Entries[1] (ptr2).
//     It reports which word failed, carries the initiator's hazard
//     pointers for helpers (line D3), needs no RDCSS sub-descriptors,
//     and costs two fewer CASs than Harris et al. [9] uncontended.
//     core decides every two-step composition chain with it (Move, a
//     one-target MoveN, a one-pair TransferN).
//
//   - General path (AllocK/Execute, reference kind KindMCAS): Harris,
//     Fraser and Pratt's practical CASN [9] — each word is acquired with
//     an RDCSS conditional on the operation still being undecided, the
//     status word decides the whole operation, then the words are
//     released. RDCSS sub-descriptors are not allocated: the RDCSS
//     descriptor for entry i of operation M is fully determined by
//     (M, i), so it is encoded directly in the word reference
//     (kind = KindRDCSS, entry index in the mark field). core uses it
//     for chains wider than two steps and for ExecuteKCAS.
//
// Both paths share the sequence-stamped ABA-safe slot reuse, the
// per-thread FIFO free ring, the owner's close and the hazard-scan
// retirement of the descriptors a helper entered. A helper that
// encounters a reference of either operation kind — or an RDCSS
// sub-reference — resolves it through this one package (Ctx.Read), so
// cross-kind helping needs no foreign-function hook.
//
// The status word reports failure slots: the pair path mirrors the
// paper's FIRSTFAILED/SECONDFAILED, the general path reports the index
// of the entry whose word did not match, so core can re-run exactly the
// operations from the failed slot onward.
//
// # Entering and closing
//
// A helper enters a descriptor before it reads any of its fields: after
// its hpd protection and the line D36 revalidation it CASes the
// descriptor's self word from the reference it found to the same
// reference with the entered mark, or finds the mark already set. The
// owner's Retire starts with the close, a CAS of self from its reference
// to 0. Both act on one word, so one of two cases holds:
//
//   - The close succeeds. No helper entered, so none read the
//     descriptor or installed a reference to it, and none can enter it
//     any more: self is 0, or a later incarnation's reference under a
//     new sequence. Every reference in a word was the owner's own, and
//     the owner's path removed it before Retire: lines D28/D29 on
//     success, D21 on SecondFailed (without a helper the only failure
//     after announcing), phase 2 on the general path, whose RDCSS
//     installs the owner promotes itself. The slot goes straight back on
//     the free ring: no scrub, no retired list, no scan.
//   - The close fails because a helper entered. The descriptor is
//     scrubbed and retired, and a scan frees it, as below.
//
// A thread protects one descriptor at a time, of any kind: it has one
// hpd slot and one set of MaxEntries node-domain mirrors. When a
// helper's phase 1 meets another descriptor reference — k-word, pair or
// RDCSS — it leaves the one it is helping (clearing the slot and the
// mirrors), helps the blocker, and its caller re-reads the word. A
// nested help would overwrite the outer protection, and the helper would
// go on with a descriptor a scan may free and its owner re-arm. An
// initiator helps blockers in place: it holds no hpd slot for its own
// descriptor.
//
// # Descriptors cannot run out
//
// Every thread owns one block of R = 2H + 2 + 64 descriptors, where H is
// the number of slots in the descriptor hazard domain — one per thread
// under the rule above, so H = MaxThreads and R = 2·MaxThreads + 66 —
// and recycles only its own. Only entered descriptors are retired. A
// retired descriptor d is freed by a scan unless the scan's
// snapshot S shows an hpd slot covering d, or one of d's target words
// still references d, in which case the scan scrubs the word and keeps
// d. The bound rests on one fact:
//
// After d's retirement, a reference to d is installed into a word only
// by a helper whose hpd slot covers d from before the retirement until
// after the install (the one-at-a-time rule above keeps the cover
// unbroken). Every install (line D14, an RDCSS install or promotion)
// is made by a helper that protected d, then validated it,
// then read d's status as not final, and the owner retires d only after
// the status is final (Success or SecondFailed on the pair path,
// decided on the general one). So if the install follows S, S shows the
// protection. Helpers that validate after the status is final only
// revert references (lines D5–D8, phase 2, promote's revert).
//
// Hence a d that S does not cover gains no new reference after S, and
// the scrub of a scan that keeps it for residue removes the last one.
// A closed descriptor is free, not retired, so when the free ring is
// empty at most two descriptors are live (a composition's lines M30–M31
// take a fresh one while holding the failed one) and at least R - 2 = 2H + 64 are
// retired, all of them entered. A first scan frees or keeps each of
// them; a second scan keeps only those its snapshot covers (at most H)
// and those the first snapshot covered that have residue again (at most
// H) — every other kept one was clean after the first scrub. The second
// scan therefore frees at least 64 slots, and alloc panics if it does
// not: that would be a broken invariant, not a resource running out.
// The 20-bit slot index holds the owner's tid in its high bits and the
// slot in its low ones, which is what bounds MaxThreads at 512
// (core.NewRuntime). At the default 64 threads a block is 194
// descriptors, ≈ 56 KiB.
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
	// descriptor is live and 0 while it is free. A helper enters the
	// descriptor after its hpd protection and line D36, before it reads
	// any other field: it sets the entered mark on the reference it
	// found (enter), which fails once the slot was closed or re-armed, so
	// a reference to a recycled slot is never trusted. The owner's close
	// (Retire) clears an unmarked self; a marked one routes the
	// descriptor through the scrub and the hazard scan.
	self atomic.Uint64

	// seq is the allocation sequence for this slot. A slot belongs to
	// its owner's block and never migrates, so seq needs no atomicity.
	seq uint64
}

// entered is ref with the entered mark. The mark lives in the thread-mark
// field, which self never otherwise sets: self holds unmarked references.
func entered(ref uint64) uint64 { return word.MarkDesc(ref, 0) }

// enter admits a helper holding the unmarked reference ref to the
// descriptor's fields: it marks self entered, or finds it already marked
// by an earlier helper. It fails once the owner has closed the
// descriptor or re-armed the slot. Every helper calls it after its hpd
// protection and line D36 and reads no field before it succeeds, so an
// owner whose close wins knows no helper read the descriptor or ever
// will.
func (d *Desc) enter(ref uint64) bool {
	e := entered(ref)
	return d.self.CompareAndSwap(ref, e) || d.self.Load() == e
}

// Status returns the raw status word (tests).
func (d *Desc) Status() uint64 { return d.status.Load() }
