// Package core implements the paper's primary contribution: the
// lock-free composition methodology of §3 — the move operation
// (Algorithm 3) that unifies the linearization points of a remove and an
// insert via DCAS, and the scas operation that move-ready objects call
// at their linearization points in place of CAS.
//
// A Runtime owns all shared substrate (arena, hazard-pointer domains,
// memory manager, descriptor pools); each participating goroutine
// registers once and receives a *Thread carrying the paper's
// thread-local variables (desc, ltarget, ltkey, insfailed) plus its
// hazard slots and memory caches.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/fault"
	"repro/internal/hazard"
	"repro/internal/kcas"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/word"
)

// Node hazard-pointer slot assignments. Requirement 2 of the
// move-candidate definition demands that insert and remove operations on
// different instances can succeed simultaneously; as §5.1 prescribes,
// insert-side and remove-side operations therefore use disjoint slot
// sets. Slots 6..7 receive the mirrored hazard pointers when helping a
// pair operation (line D3); the next MaxEntries slots are mirrors for
// k-word helping; the final MaxEntries slots are the chain hold slots —
// initiator-side per-entry protections published while a composed
// chain (MoveN, TransferN, SwapHeads) accumulates entries, so a node
// captured at entry j stays protected even after a later same-side
// operation overwrites the container slots it was found through.
const (
	SlotIns0   = 0 // insert-side primary (e.g. ltail in enqueue)
	SlotIns1   = 1 // insert-side secondary (e.g. lnext in enqueue)
	SlotInsAux = 2 // insert-side traversal (ordered list prev)
	SlotRem0   = 3 // remove-side primary (e.g. lhead in dequeue)
	SlotRem1   = 4 // remove-side secondary (e.g. lnext in dequeue)
	SlotRemAux = 5 // remove-side traversal (ordered list prev)

	slotMirror1 = 6
	slotMirror2 = 7

	slotKMirrorBase   = 8
	slotChainHoldBase = 8 + kcas.MaxEntries

	nodeSlotsPerThread = 8 + 2*kcas.MaxEntries
)

// Descriptor-domain hazard slots.
const (
	slotHPD      = 0 // pair hpd (read operation, line D35)
	slotKHPD     = 1 // k-word descriptor protection
	slotRDCSSHPD = 2 // RDCSS sub-descriptor protection
	descSlotsPer = 3
)

// Config sizes a Runtime. The zero value selects usable defaults.
type Config struct {
	// MaxThreads is the number of threads that may register. Default 64;
	// hard limit word.MaxThreads.
	MaxThreads int
	// ArenaCapacity is the maximum number of container nodes. Default
	// 1<<22.
	ArenaCapacity int
	// DescCapacity is the maximum number of k-word CAS descriptors —
	// the runtime's total descriptor budget, honored exactly by the one
	// unified pool. Default 1<<18.
	DescCapacity int
	// RetireThreshold triggers hazard scans of retired nodes. Default
	// mm.DefaultRetireThreshold.
	RetireThreshold int
	// Fault, when non-nil, is fired at the substrate's named injection
	// points (descriptor publish/commit/recycle, batch prepare–commit
	// gap, hash-map mid-grow) — see package fault. Nil (the
	// default) disables injection; each hook site then costs one
	// nil-interface check. Test- and chaos-harness-only: actions may
	// stall, park, or terminate the calling goroutine.
	Fault fault.Injector
	// Obs configures the unified telemetry layer (package obs): a
	// striped metrics registry the substrate and containers report
	// into, and a descriptor-protocol tracer recording publish / help /
	// commit / abort / recycle events with helper→victim attribution.
	// The zero value disables both; every hook site then costs one nil
	// check and the Move/MoveN hot paths are unchanged.
	Obs obs.Config
}

// Runtime owns the shared substrate for one family of concurrent
// objects. Objects from different runtimes must not be composed: their
// words dereference different arenas.
type Runtime struct {
	cfg Config

	arena   *arena.Arena
	nodeDom *hazard.Domain
	descDom *hazard.Domain
	mm      *mm.Manager
	pool    *kcas.Pool
	obs     *obs.Obs

	nextTID atomic.Int32
	objIDs  atomic.Uint64
}

// NewRuntime builds a Runtime from cfg.
func NewRuntime(cfg Config) *Runtime {
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 64
	}
	if cfg.MaxThreads > word.MaxThreads {
		panic(fmt.Sprintf("core: MaxThreads %d exceeds encodable limit %d", cfg.MaxThreads, word.MaxThreads))
	}
	rt := &Runtime{cfg: cfg}
	rt.arena = arena.New(cfg.ArenaCapacity)
	rt.nodeDom = hazard.New(cfg.MaxThreads, nodeSlotsPerThread)
	rt.descDom = hazard.New(cfg.MaxThreads, descSlotsPer)
	rt.mm = mm.New(rt.arena, rt.nodeDom, mm.Config{RetireThreshold: cfg.RetireThreshold})
	// One pool for both protocols: DescCapacity is the whole budget.
	// (The split engines each carved a full-capacity pool from the same
	// config field, silently doubling descriptor memory.)
	rt.pool = kcas.NewPool(cfg.DescCapacity, rt.descDom)
	rt.obs = obs.New(cfg.Obs, cfg.MaxThreads)
	if reg := rt.obs.Metrics(); reg != nil {
		// Pull the substrate's own monotone counters into the registry:
		// the funcs read exactly the atomics the legacy accessors
		// (Pool.Stats, Plan.FiredTotal, ...) report, so the two surfaces
		// cannot drift.
		pool := rt.pool
		reg.AddFunc("kcas_stray_cleanups_total", func() uint64 { _, s, _ := pool.Stats(); return s })
		reg.AddFunc("kcas_late_p2_total", func() uint64 { _, _, l := pool.Stats(); return l })
		reg.AddFunc("kcas_descs_carved_total", pool.Carved)
		if trc := rt.obs.Tracer(); trc != nil {
			reg.AddFunc("trace_dropped_total", trc.Dropped)
		}
		if pl, ok := cfg.Fault.(*fault.Plan); ok && pl != nil {
			reg.AddFunc("fault_fired_total", pl.FiredTotal)
			reg.AddFunc("fault_kills_total", pl.Kills)
		}
	}
	return rt
}

// Arena exposes the node arena (containers dereference through Thread,
// tests through this).
func (rt *Runtime) Arena() *arena.Arena { return rt.arena }

// Manager exposes the memory manager for tests and diagnostics.
func (rt *Runtime) Manager() *mm.Manager { return rt.mm }

// KCASPool exposes the unified descriptor pool's counters for tests and
// the §7 false-helping measurements.
func (rt *Runtime) KCASPool() *kcas.Pool { return rt.pool }

// MaxThreads reports the configured registration limit.
func (rt *Runtime) MaxThreads() int { return rt.cfg.MaxThreads }

// Obs exposes the runtime's telemetry surfaces; nil when Config.Obs
// disabled both (the nil accessors stay safe to chain, so callers write
// rt.Obs().Metrics() without guards).
func (rt *Runtime) Obs() *obs.Obs { return rt.obs }

// NextObjectID hands out stable object identities; the blocking baseline
// uses them for lock ordering and Move uses them to reject same-object
// composition early.
func (rt *Runtime) NextObjectID() uint64 { return rt.objIDs.Add(1) }

// RegisterThread allocates the next thread slot. Each goroutine that
// touches the runtime's objects must own exactly one Thread and must not
// share it. It panics when MaxThreads is exceeded.
func (rt *Runtime) RegisterThread() *Thread {
	id := int(rt.nextTID.Add(1)) - 1
	if id >= rt.cfg.MaxThreads {
		panic(fmt.Sprintf("core: more than MaxThreads=%d threads registered", rt.cfg.MaxThreads))
	}
	t := &Thread{
		id:    id,
		rt:    rt,
		cache: rt.mm.NewCache(id),
		kctx: kcas.NewCtx(rt.pool, rt.nodeDom, id, kcas.Slots{
			PairHPD: slotHPD, KHPD: slotKHPD, RDCSSHPD: slotRDCSSHPD,
			PairMirror1: slotMirror1, PairMirror2: slotMirror2,
			KMirrorBase: slotKMirrorBase,
		}),
		flt: rt.cfg.Fault,
		reg: rt.obs.Metrics(),
		trc: rt.obs.Tracer(),
	}
	t.kctx.SetFault(rt.cfg.Fault)
	t.kctx.SetObs(t.reg, t.trc)
	return t
}

// RegisteredThreads reports how many threads have registered.
func (rt *Runtime) RegisteredThreads() int { return int(rt.nextTID.Load()) }
