package kcas

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/pad"
	"repro/internal/word"
)

const (
	descSlabShift = 10
	descSlabSize  = 1 << descSlabShift
	descSlabMask  = descSlabSize - 1
)

// Pool is the grow-only slab store for descriptors, shared by all
// threads and by both protocols. Slot ownership is per-thread: a slot
// is carved by one thread and recycled only through that thread's
// cache, which keeps the seq field single-writer. The configured
// capacity bounds the pool exactly — there is one pool per runtime, so
// core.Config.DescCapacity is the total descriptor budget, not a
// per-engine figure.
type Pool struct {
	// Read by every descriptor dereference, written when a slab is added:
	// a line of their own, away from the words below.
	slabs atomic.Pointer[[]*[descSlabSize]Desc]
	limit uint64
	dom   *hazard.Domain // descriptor hazard domain (hpd slots)
	_     [pad.CacheLineSize - 24]byte

	growMu sync.Mutex
	next   atomic.Uint64 // bump allocator: one add per carved batch

	// Observability counters (§7 discusses "false helping ... a lot of
	// extra CASs"; these make that measurable). Written on the helping
	// and cleanup paths only.
	helps         atomic.Uint64 // helper entries into the pair protocol
	khelps        atomic.Uint64 // helper entries into the general protocol
	strayCleanups atomic.Uint64 // stray descriptor refs reverted after decision
	lateP2        atomic.Uint64 // pair ptr2 installs that lost the status race
	_             [pad.CacheLineSize - 48]byte
}

// NewPool creates a descriptor pool with capacity maxDescs (<=0 selects
// 1<<18) and the given descriptor hazard domain.
func NewPool(maxDescs int, dom *hazard.Domain) *Pool {
	if maxDescs <= 0 {
		maxDescs = 1 << 18
	}
	if uint64(maxDescs) > word.MaxDescIndex {
		maxDescs = int(word.MaxDescIndex)
	}
	p := &Pool{limit: uint64(maxDescs), dom: dom}
	empty := make([]*[descSlabSize]Desc, 0)
	p.slabs.Store(&empty)
	return p
}

// At dereferences a descriptor slot index.
func (p *Pool) At(idx uint64) *Desc {
	slabs := *p.slabs.Load()
	return &slabs[idx>>descSlabShift][idx&descSlabMask]
}

// Capacity reports the configured slot limit.
func (p *Pool) Capacity() uint64 { return p.limit }

// Stats reports (pair helper entries, stray cleanups, late ptr2
// installs) — the §7 false-helping metrics.
func (p *Pool) Stats() (helps, strays, lateP2 uint64) {
	return p.helps.Load(), p.strayCleanups.Load(), p.lateP2.Load()
}

// KHelps reports helper entries into the general k-word protocol.
func (p *Pool) KHelps() uint64 { return p.khelps.Load() }

// Carved reports how many descriptor slots the pool's bump allocator
// has handed out; a flat count under sustained load means recycling is
// keeping up (tests and diagnostics).
func (p *Pool) Carved() uint64 { return p.next.Load() }

// carve bump-allocates n fresh slot indexes.
func (p *Pool) carve(dst []uint64, n int) []uint64 {
	start := p.next.Add(uint64(n)) - uint64(n)
	end := start + uint64(n)
	if end > p.limit {
		// Typed so core.Thread.Try can recover it into ErrResourceExhausted.
		// Safe to throw here: carve runs strictly before the descriptor is
		// filled or announced, so no shared state references the operation.
		panic(&fault.ResourceError{Resource: "kcas: descriptor pool", Capacity: p.limit, Hint: "DescCapacity"})
	}
	p.ensure(end)
	for i := start; i < end; i++ {
		dst = append(dst, i)
	}
	return dst
}

func (p *Pool) ensure(end uint64) {
	need := int((end + descSlabMask) >> descSlabShift)
	if len(*p.slabs.Load()) >= need {
		return
	}
	p.growMu.Lock()
	defer p.growMu.Unlock()
	cur := *p.slabs.Load()
	if len(cur) >= need {
		return
	}
	grown := make([]*[descSlabSize]Desc, need)
	copy(grown, cur)
	for i := len(cur); i < need; i++ {
		grown[i] = new([descSlabSize]Desc)
	}
	p.slabs.Store(&grown)
}
