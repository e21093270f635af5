package kcas

import (
	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/obs"
	"repro/internal/word"
)

// retireScanAt is the retired-descriptor count that triggers a scan.
const retireScanAt = 64

// carveBatch is how many fresh descriptor slots a thread carves at once.
const carveBatch = 64

// Slots names the hazard slots a Ctx publishes into. The three
// descriptor-domain slots keep the pre-unification nesting discipline:
// helping a pair operation from inside general phase 1 must not clobber
// the general descriptor's own protection.
type Slots struct {
	// PairHPD/KHPD/RDCSSHPD index the pool's descriptor hazard domain:
	// the hpd of the pair read operation (line D35), the general
	// descriptor's protection, and the RDCSS sub-descriptor protection.
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
	pool    *Pool
	nodeDom *hazard.Domain
	slots   Slots

	// free is a FIFO ring of recyclable slot indexes (owned by this
	// thread): popped at freeHead, pushed at the back, compacted in place
	// when full so steady-state operation never reallocates.
	free     []uint64
	freeHead int
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
func NewCtx(pool *Pool, nodeDom *hazard.Domain, tid int, slots Slots) *Ctx {
	return &Ctx{tid: tid, pool: pool, nodeDom: nodeDom, slots: slots}
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

// hasFree reports whether the free ring holds a recyclable slot.
func (c *Ctx) hasFree() bool { return c.freeHead < len(c.free) }

// popFree takes the oldest free slot (FIFO, maximizing reuse distance).
func (c *Ctx) popFree() uint64 {
	idx := c.free[c.freeHead]
	c.freeHead++
	if c.freeHead == len(c.free) {
		c.free = c.free[:0]
		c.freeHead = 0
	}
	return idx
}

// pushFree returns a slot to the ring, compacting consumed head space in
// place instead of letting append grow the backing array forever.
func (c *Ctx) pushFree(idx uint64) {
	if c.freeHead > 0 && len(c.free) == cap(c.free) {
		n := copy(c.free, c.free[c.freeHead:])
		c.free = c.free[:n]
		c.freeHead = 0
	}
	c.free = append(c.free, idx)
}

// alloc takes a slot from the free ring (scanning/carving as needed),
// stamps a fresh sequence and returns the descriptor with its unmarked
// reference of the given kind. Both protocols draw from the same ring,
// so a thread's mix of pairwise and k-way traffic shares one reuse
// distance.
func (c *Ctx) alloc(kind uint64) (*Desc, uint64) {
	if !c.hasFree() {
		if len(c.retired) > 0 {
			c.scan()
		}
		if !c.hasFree() {
			c.free = c.pool.carve(c.free, carveBatch)
		}
	}
	idx := c.popFree()
	d := c.pool.At(idx)
	d.seq++
	ref := word.MakeDesc(kind, idx, d.seq)
	d.owner.Store(int32(c.tid))
	d.status.Store(statusUndecided)
	d.self.Store(ref)
	return d, ref
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
// is first scrubbed from its target words, then parked until a scan
// proves it unreachable.
func (c *Ctx) Retire(d *Desc, ref uint64) {
	c.obsEvent(obs.KCASRecycle, obs.EvRecycle, -1, ref)
	c.fire(fault.KCASBeforeRecycle)
	c.scrub(d, ref)
	c.retired = append(c.retired, retiredDesc{d: d, ref: ref})
	if len(c.retired) >= retireScanAt {
		c.scan()
	}
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
			c.pool.strayCleanups.Add(1)
		}
	}
	for i := 0; i < 16; i++ {
		v := e2.Ptr.Load()
		if !word.SameDesc(v, ref) {
			break
		}
		if e2.Ptr.CAS(v, e2.Old) {
			c.pool.strayCleanups.Add(1)
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
	c.snap = c.pool.dom.Snapshot(c.snap)
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
