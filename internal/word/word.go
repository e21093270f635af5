// Package word defines the 64-bit shared-word encoding used by every
// concurrent object in this repository and the Word type, an atomic
// 64-bit cell holding such encoded values.
//
// The paper stores raw pointers in shared words and distinguishes DCAS
// descriptors by setting the least significant bit (Harris' tagging
// technique, §3.2.2). Go's garbage collector does not permit bit-stuffed
// pointers, so shared words hold 64-bit handles instead:
//
//	0                                   nil
//	bit 0 = 0   node reference:
//	            bit  1        Harris-list logical-delete mark
//	            bits 2..41    arena index (40 bits)
//	            bits 42..63   version tag (22 bits; no container sets it)
//	bit 0 = 1   descriptor reference:
//	            bits 1..2     descriptor kind (DCAS / MCAS / RDCSS)
//	            bits 3..16    thread mark: tid+1, 0 = unmarked (14 bits)
//	            bits 17..36   descriptor slot index (20 bits)
//	            bits 37..63   allocation sequence (27 bits)
//
// The thread mark reproduces the paper's mark(unmark(desc), threadID)
// operation used on ptr2 to defeat the ABA problem; the sequence field
// makes the "hpd = *ptr" revalidation in the read operation (line D36)
// robust against descriptor slot reuse.
package word

import "sync/atomic"

// Nil is the encoding of the null reference.
const Nil uint64 = 0

// Field widths and shifts for node references.
const (
	nodeMarkBit   = 1 << 1
	nodeIndexBits = 40
	nodeIndexMask = (1 << nodeIndexBits) - 1
	nodeTagBits   = 22
	nodeTagMask   = (1 << nodeTagBits) - 1
	nodeTagShift  = 2 + nodeIndexBits
)

// MaxNodeIndex is the largest arena index representable in a node
// reference.
const MaxNodeIndex = nodeIndexMask

// MaxNodeTag is the largest version tag representable in a node reference.
const MaxNodeTag = nodeTagMask

// Field widths and shifts for descriptor references.
const (
	descKindShift = 1
	descKindMask  = 3
	descTIDShift  = 3
	descTIDBits   = 14
	descTIDMask   = (1 << descTIDBits) - 1
	descIdxShift  = 17
	descIdxBits   = 20
	descIdxMask   = (1 << descIdxBits) - 1
	descSeqShift  = 37
	descSeqBits   = 27
	descSeqMask   = (1 << descSeqBits) - 1
)

// Descriptor kinds.
const (
	KindDCAS  = 0
	KindMCAS  = 1
	KindRDCSS = 2
)

// MaxThreads is the number of distinct thread ids representable in a
// descriptor mark (tid+1 must fit in 14 bits).
const MaxThreads = descTIDMask - 1

// MaxDescIndex is the largest descriptor slot index representable.
const MaxDescIndex = descIdxMask

// IsDesc reports whether v encodes a descriptor reference.
func IsDesc(v uint64) bool { return v&1 == 1 }

// --- Node references ---------------------------------------------------

// MakeNode builds an unmarked node reference from an arena index and a
// version tag.
func MakeNode(index, tag uint64) uint64 {
	return (index&nodeIndexMask)<<2 | (tag&nodeTagMask)<<nodeTagShift
}

// NodeIndex extracts the arena index from a node reference.
func NodeIndex(v uint64) uint64 { return (v >> 2) & nodeIndexMask }

// NodeTag extracts the version tag from a node reference.
func NodeTag(v uint64) uint64 { return (v >> nodeTagShift) & nodeTagMask }

// IsListMarked reports whether the node reference carries the Harris-list
// logical-delete mark.
func IsListMarked(v uint64) bool { return v&nodeMarkBit != 0 }

// ListMarked returns v with the logical-delete mark set.
func ListMarked(v uint64) uint64 { return v | nodeMarkBit }

// ListUnmarked returns v with the logical-delete mark cleared.
func ListUnmarked(v uint64) uint64 { return v &^ uint64(nodeMarkBit) }

// --- Descriptor references ---------------------------------------------

// MakeDesc builds an unmarked descriptor reference.
func MakeDesc(kind, index, seq uint64) uint64 {
	return 1 |
		(kind&descKindMask)<<descKindShift |
		(index&descIdxMask)<<descIdxShift |
		(seq&descSeqMask)<<descSeqShift
}

// DescKind extracts the descriptor kind.
func DescKind(v uint64) uint64 { return (v >> descKindShift) & descKindMask }

// DescIndex extracts the descriptor slot index.
func DescIndex(v uint64) uint64 { return (v >> descIdxShift) & descIdxMask }

// DescSeq extracts the allocation sequence number.
func DescSeq(v uint64) uint64 { return (v >> descSeqShift) & descSeqMask }

// DescTID extracts the thread mark (tid+1; 0 means unmarked).
func DescTID(v uint64) uint64 { return (v >> descTIDShift) & descTIDMask }

// IsMarkedDesc reports whether the descriptor reference carries a thread
// mark, i.e. whether it was installed into ptr2 ("desc is marked", line
// D5 of Algorithm 4).
func IsMarkedDesc(v uint64) bool { return IsDesc(v) && DescTID(v) != 0 }

// MarkDesc returns the descriptor reference marked with the given thread
// id: the paper's mark(unmark(desc), threadID) from line D13.
func MarkDesc(v uint64, tid int) uint64 {
	return UnmarkDesc(v) | (uint64(tid+1)&descTIDMask)<<descTIDShift
}

// UnmarkDesc clears the thread mark, recovering the canonical reference
// the initiator announced in ptr1.
func UnmarkDesc(v uint64) uint64 {
	return v &^ uint64(descTIDMask<<descTIDShift)
}

// SameDesc reports whether a and b refer to the same descriptor instance
// (same kind, slot and sequence) regardless of thread marks.
func SameDesc(a, b uint64) bool {
	return IsDesc(a) && IsDesc(b) && UnmarkDesc(a) == UnmarkDesc(b)
}

// --- Word ---------------------------------------------------------------

// Word is a 64-bit shared memory cell. All loads and stores are
// sequentially consistent (sync/atomic). Every mutable location that can
// participate in a DCAS is a Word, accessed through the read operation of
// Algorithm 4 wherever the paper requires it.
type Word struct{ v atomic.Uint64 }

// Load returns the current value.
func (w *Word) Load() uint64 { return w.v.Load() }

// Store unconditionally replaces the current value.
func (w *Word) Store(x uint64) { w.v.Store(x) }

// CAS atomically replaces old with new and reports whether it did.
func (w *Word) CAS(old, new uint64) bool {
	return w.v.CompareAndSwap(old, new)
}

// Swap atomically replaces the value and returns the previous one.
func (w *Word) Swap(x uint64) uint64 { return w.v.Swap(x) }
