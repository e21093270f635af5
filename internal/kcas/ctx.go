package kcas

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/obs"
	"repro/internal/word"
)

// scanBatch is the least number of slots a refill frees: the part of a
// block beyond what the reclamation bound lets scans keep.
const scanBatch = 64

// liveDescs bounds the descriptors one thread holds at once: lines
// M30–M31 (and a chain's conflict path) take a fresh descriptor before
// retiring the failed one.
const liveDescs = 2

// blockSize is the number of descriptor slots each thread owns when the
// descriptor hazard domain has hazardSlots slots in all: two snapshots'
// worth of hazard slots, the live descriptors and one scan batch. The
// package comment proves two scans free a slot of a block this size.
func blockSize(hazardSlots int) int { return 2*hazardSlots + liveDescs + scanBatch }

// Blocks is the runtime's descriptor store, shared by both protocols:
// one fixed block of blockSize descriptors per thread, allocated by its
// owner on the first AllocPair/AllocK and never freed. A descriptor's
// slot index is tid<<shift | slot, so a helper holding a reference finds
// the descriptor and its owner — the victim of the help — from the
// index alone.
type Blocks struct {
	dom    *hazard.Domain // descriptor hazard domain (hpd slots)
	size   int
	shift  uint
	blocks []atomic.Pointer[[]Desc] // by owner tid, stored once by the owner
}

// NewBlocks sizes the store for the threads of the descriptor hazard
// domain dom. It fails when their blocks do not fit the slot index.
func NewBlocks(dom *hazard.Domain) (*Blocks, error) {
	threads := dom.MaxThreads()
	size := blockSize(threads * dom.SlotsPerThread())
	shift := uint(bits.Len(uint(size - 1)))
	if uint64(threads)<<shift > word.MaxDescIndex+1 {
		return nil, fmt.Errorf("kcas: %d threads of %d descriptor slots each exceed the %d-slot descriptor index",
			threads, size, word.MaxDescIndex+1)
	}
	return &Blocks{dom: dom, size: size, shift: shift, blocks: make([]atomic.Pointer[[]Desc], threads)}, nil
}

// at dereferences a descriptor slot index. The owner's block exists:
// every index a word can hold was stamped by an alloc from it.
func (b *Blocks) at(idx uint64) *Desc {
	return &(*b.blocks[idx>>b.shift].Load())[idx&(1<<b.shift-1)]
}

// owner reports the tid whose block holds slot index idx.
func (b *Blocks) owner(idx uint64) int32 { return int32(idx >> b.shift) }

// Slots names the hazard slots a Ctx publishes into. The three
// descriptor-domain slots keep the pre-unification nesting discipline:
// helping a pair operation from inside general phase 1 must not clobber
// the general descriptor's own protection.
type Slots struct {
	// PairHPD/KHPD/RDCSSHPD index the descriptor hazard domain: the hpd
	// of the pair read operation (line D35), the general descriptor's
	// protection, and the RDCSS sub-descriptor protection.
	PairHPD, KHPD, RDCSSHPD int
	// PairMirror1/PairMirror2 index the node domain and receive the
	// initiator's hazard pointers when helping a pair operation (line
	// D3); KMirrorBase is the first of MaxEntries consecutive node-domain
	// mirrors for general helping.
	PairMirror1, PairMirror2 int
	KMirrorBase              int
}

// Ctx is the per-thread handle for running and helping k-word CAS
// operations of either kind. Not safe for concurrent use: one per
// registered thread.
type Ctx struct {
	tid     int
	blocks  *Blocks
	nodeDom *hazard.Domain
	slots   Slots

	// block is this thread's descriptor block (nil until the first
	// alloc) and base the slot index of its first descriptor. free is a
	// FIFO ring of the block's free slots, oldest at freeHead, so reuse
	// distance is as long as the block allows.
	block    []Desc
	base     uint64
	free     []uint32
	freeHead int
	nFree    int
	retired  []retiredDesc
	snap     []uint64

	// flt, when non-nil, is fired at the protocol's critical windows
	// (publish/commit/recycle). Nil in production: each hook site is one
	// nil-interface check.
	flt fault.Injector

	// reg/trc, when non-nil, receive the protocol's lifecycle counters
	// and trace events (package obs). Nil (the default) disables
	// telemetry: each hook site is one nil check.
	reg *obs.Registry
	trc *obs.Tracer

	stuck stuckState // diagnostic state for stale-reference detection
}

type retiredDesc struct {
	d   *Desc
	ref uint64
}

// NewCtx creates the per-thread context over the given slot assignment.
func NewCtx(blocks *Blocks, nodeDom *hazard.Domain, tid int, slots Slots) *Ctx {
	return &Ctx{tid: tid, blocks: blocks, nodeDom: nodeDom, slots: slots}
}

// TID returns the thread id this context was created for.
func (c *Ctx) TID() int { return c.tid }

// SetFault installs the fault injector fired at this context's
// injection points; nil (the default) disables injection.
func (c *Ctx) SetFault(inj fault.Injector) { c.flt = inj }

// SetObs installs the telemetry sinks for this context's protocol
// events; nils (the default) disable them.
func (c *Ctx) SetObs(reg *obs.Registry, trc *obs.Tracer) {
	c.reg = reg
	c.trc = trc
}

// obsEvent pushes one lifecycle counter increment and trace event. The
// counter and the event kind are paired one-to-one so METRICS totals and
// drained traces describe the same protocol history.
func (c *Ctx) obsEvent(ctr obs.Counter, k obs.EventKind, peer int32, ref uint64) {
	if c.reg != nil {
		c.reg.Inc(c.tid, ctr)
	}
	if c.trc != nil {
		c.trc.Record(c.tid, k, peer, ref)
	}
}

// fire triggers injection point p if an injector is installed. The
// calling goroutine may be stalled, parked, or terminated here; every
// hook site sits at a window where peers can complete the operation.
func (c *Ctx) fire(p fault.Point) {
	if c.flt != nil {
		c.flt.Fire(p, c.tid)
	}
}

// pushFree returns slot index idx to the back of the free ring.
func (c *Ctx) pushFree(idx uint64) {
	i := c.freeHead + c.nFree
	if i >= len(c.free) {
		i -= len(c.free)
	}
	c.free[i] = uint32(idx - c.base)
	c.nFree++
}

// alloc takes the oldest free slot (refilling the ring if it is empty),
// stamps a fresh sequence and returns the descriptor with its unmarked
// reference of the given kind. Both protocols draw from the same ring,
// so a thread's mix of pairwise and k-way traffic shares one reuse
// distance.
func (c *Ctx) alloc(kind uint64) (*Desc, uint64) {
	if c.nFree == 0 {
		c.refill()
	}
	slot := c.free[c.freeHead]
	if c.freeHead++; c.freeHead == len(c.free) {
		c.freeHead = 0
	}
	c.nFree--
	d := &c.block[slot]
	d.seq++
	ref := word.MakeDesc(kind, c.base+uint64(slot), d.seq)
	d.status.Store(statusUndecided)
	d.self.Store(ref)
	return d, ref
}

// refill makes the empty free ring non-empty. The first call allocates
// this thread's block; later ones scan the retired list, and once more
// if that freed nothing. The package comment proves the second scan
// always frees a slot, so an empty ring after it is an invariant
// violation, not a resource limit.
func (c *Ctx) refill() {
	if c.block == nil {
		n := c.blocks.size
		c.block = make([]Desc, n)
		c.base = uint64(c.tid) << c.blocks.shift
		c.blocks.blocks[c.tid].Store(&c.block)
		c.free = make([]uint32, n)
		for i := range c.free {
			c.free[i] = uint32(i)
		}
		c.nFree = n
		c.retired = make([]retiredDesc, 0, n)
		return
	}
	for range 2 {
		if c.scan(); c.nFree > 0 {
			return
		}
	}
	panic(fmt.Sprintf("kcas: thread %d: two scans freed none of its %d descriptors; the reclamation bound is violated",
		c.tid, len(c.block)))
}

// AllocPair returns a fresh, undecided pair descriptor and its unmarked
// KindDCAS reference (lines M2–M3 of Algorithm 3). N is preset to 2 and
// both entries are zeroed; the caller fills Entries[0] (ptr1) and
// Entries[1] (ptr2) before ExecutePair.
func (c *Ctx) AllocPair() (*Desc, uint64) {
	d, ref := c.alloc(word.KindDCAS)
	d.N = 2
	d.Entries[0] = Entry{}
	d.Entries[1] = Entry{}
	return d, ref
}

// AllocK returns a fresh, undecided general descriptor and its unmarked
// KindMCAS reference. N starts at 0; the caller sets N and
// Entries[0..N) before Execute.
func (c *Ctx) AllocK() (*Desc, uint64) {
	d, ref := c.alloc(word.KindMCAS)
	d.N = 0
	return d, ref
}

// FreeDirect recycles a descriptor that was never announced (the pair
// returned FIRSTFAILED before publishing, the operation never reached
// its decision, or Execute was never called). No helper can hold a
// reference, so it skips the hazard scan.
func (c *Ctx) FreeDirect(d *Desc, ref uint64) {
	c.obsEvent(obs.KCASRecycle, obs.EvRecycle, -1, ref)
	c.fire(fault.KCASBeforeRecycle)
	d.self.Store(0)
	c.pushFree(word.DescIndex(ref))
}

// Retire recycles a descriptor that was announced: helpers may still
// reference it through hpd slots or through stray word contents, so it
// is first scrubbed from its target words, then parked until a scan —
// run when the free ring is empty — proves it unreachable.
func (c *Ctx) Retire(d *Desc, ref uint64) {
	c.obsEvent(obs.KCASRecycle, obs.EvRecycle, -1, ref)
	c.fire(fault.KCASBeforeRecycle)
	c.scrub(d, ref)
	c.retired = append(c.retired, retiredDesc{d: d, ref: ref})
}

// scrub removes residual references to d from its target words,
// dispatching on the protocol the descriptor ran (fixed by its
// reference kind). The operation has completed, so every revert below
// is lazy cleanup; bounded, because new strays can only come from
// helpers still in flight, which the scan's hpd check catches.
func (c *Ctx) scrub(d *Desc, ref uint64) {
	if word.DescKind(ref) == word.KindDCAS {
		c.scrubPair(d, ref)
		return
	}
	c.scrubK(d, ref)
}

// scrubPair is the pair protocol's lazy cleanup of lines D5–D8: an
// unmarked residue in ptr1 means the DCAS failed after announcing
// (revert to old1); a marked residue in ptr2 is a stray from a late ABA
// install (revert to old2; the real decision already took effect).
func (c *Ctx) scrubPair(d *Desc, ref uint64) {
	e1, e2 := &d.Entries[0], &d.Entries[1]
	for i := 0; i < 16; i++ {
		v := e1.Ptr.Load()
		if !word.SameDesc(v, ref) {
			break
		}
		if e1.Ptr.CAS(v, e1.Old) {
			c.reg.Inc(c.tid, obs.KCASStrayCleanup)
		}
	}
	for i := 0; i < 16; i++ {
		v := e2.Ptr.Load()
		if !word.SameDesc(v, ref) {
			break
		}
		if e2.Ptr.CAS(v, e2.Old) {
			c.reg.Inc(c.tid, obs.KCASStrayCleanup)
		}
	}
}

// scrubK is the general protocol's cleanup: residual full references
// release per phase 2, residual RDCSS sub-references revert (the
// operation is decided, so an unpromoted acquisition is void).
func (c *Ctx) scrubK(d *Desc, ref uint64) {
	st := d.status.Load()
	for i := 0; i < d.N; i++ {
		e := &d.Entries[i]
		for range [8]struct{}{} {
			v := e.Ptr.Load()
			switch {
			case word.SameDesc(v, ref) && word.DescKind(v) == word.KindMCAS:
				if st == statusSuccess {
					e.Ptr.CAS(v, e.New)
				} else {
					e.Ptr.CAS(v, e.Old)
				}
			case word.IsDesc(v) && word.DescKind(v) == word.KindRDCSS &&
				word.DescIndex(v) == word.DescIndex(ref) && word.DescSeq(v) == word.DescSeq(ref):
				e.Ptr.CAS(v, e.Old)
			default:
				goto next
			}
		}
	next:
	}
}

// residue reports whether any of rd's target words still references it
// in any form. One slot+seq pair names one logical descriptor
// regardless of the reference's kind bits, so matching on index and
// sequence covers unmarked pair announcements, marked ptr2 installs,
// full general references and RDCSS sub-references alike.
func (c *Ctx) residue(rd retiredDesc) bool {
	idx := word.DescIndex(rd.ref)
	seq := word.DescSeq(rd.ref)
	for i := 0; i < rd.d.N; i++ {
		v := rd.d.Entries[i].Ptr.Load()
		if word.IsDesc(v) && word.DescIndex(v) == idx && word.DescSeq(v) == seq {
			return true
		}
	}
	return false
}

// scan frees every retired descriptor that is (a) not protected by any
// hpd slot and (b) absent from all of its target words. The hpd
// snapshot is taken first: any helper that could still install a stray
// was in flight — and therefore visible — at snapshot time.
func (c *Ctx) scan() {
	c.snap = c.blocks.dom.Snapshot(c.snap)
	kept := c.retired[:0]
	for _, rd := range c.retired {
		idx := word.DescIndex(rd.ref)
		if hazard.Protected(c.snap, idx+1) {
			kept = append(kept, rd)
			continue
		}
		if c.residue(rd) {
			c.scrub(rd.d, rd.ref)
			kept = append(kept, rd)
			continue
		}
		rd.d.self.Store(0)
		c.pushFree(idx)
	}
	c.retired = kept
}

// Flush retires everything it can; used at thread shutdown and by tests.
func (c *Ctx) Flush() {
	for prev := -1; len(c.retired) > 0 && len(c.retired) != prev; {
		prev = len(c.retired)
		c.scan()
	}
}

// Retired reports the retired-list length (tests).
func (c *Ctx) Retired() int { return len(c.retired) }
