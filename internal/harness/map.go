package harness

// This file adds the map-churn scenario: the keyed, high-fan-out
// workload the sharded map opens up, alongside the paper's queue/stack
// pairings. Threads churn a growing map with keyed inserts, removes,
// lookups and cross-map moves (including §8 MoveN fan-outs into a map
// plus an audit queue), while an optional rebalancer thread drives
// pending shard migrations in bounded RebalanceStep increments. The
// maps start deliberately small, so the measured interval contains real
// grows whose entry relocations all run through Move.
//
// Impl selects the family: LockFree is the composition-paper map;
// Blocking is the lock-striped baseline (blocking.Map), extending the
// Figures 2–4 lockfree-vs-blocking comparison to the keyed workload.
// The blocking side has no MoveN analogue (a third lock would nest),
// so fan-out moves degrade to plain two-lock keyed moves there, and
// rebalancing happens inline under the shard locks.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/elim"
	"repro/internal/hashmap"
	"repro/internal/msqueue"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// MapOptions configures one cell of the map-churn scenario.
type MapOptions struct {
	// Impl selects lock-free (default) or the lock-striped blocking
	// baseline.
	Impl     Impl
	Threads  int
	TotalOps int // distributed evenly over threads
	Trials   int
	// Keys is the key-space size; smaller means more collisions.
	Keys int
	// Shards/Buckets/GrowLoad shape both maps (see hashmap.NewSharded);
	// the defaults (2 shards × 2 buckets, grow at 4) guarantee grows
	// during the run.
	Shards, Buckets, GrowLoad int
	// MovePercent of operations are keyed cross-map moves; FanPercent of
	// those are MoveN fan-outs into the other map plus the audit queue.
	// The remainder splits evenly between insert, remove and lookup.
	MovePercent, FanPercent int
	// ReadFraction makes this the read-mostly cell: that percent of
	// operations become plain lookups before the move/churn split is
	// consulted (e.g. 95 gives the classic 95/5 lookup-heavy mix). 0
	// keeps the pure churn cell.
	ReadFraction int
	// Rebalancer adds a dedicated thread looping RebalanceStep, so
	// migration work overlaps the measured operations (lock-free only).
	Rebalancer bool
	// Zipf draws keys from a zipfian distribution over the key space
	// instead of uniformly — the skewed cell, where a few hot keys (and
	// so a few hot shards) absorb most of the churn. ZipfTheta sets the
	// skew (<= 0: xrand.DefaultZipfTheta).
	Zipf      bool
	ZipfTheta float64
	// Elimination enables the elimination-backoff layer on both maps'
	// shards; ElimSlots/ElimSpins tune the arrays.
	Elimination          bool
	ElimSlots, ElimSpins int
	// Adaptive enables the feedback-driven contention-management
	// subsystem (core.Config.Adaptive) on the lock-free maps: window
	// sizing, hot-shard elimination and rebalance pacing, sampled on
	// operation-count epochs. AdaptEpochOps overrides the epoch length
	// (0: package default).
	Adaptive      bool
	AdaptEpochOps int
	Contention    Contention
	Prefill       int // entries pre-inserted per map
	Seed          uint64
	Pin           bool
	// ArenaCapacity overrides the runtime sizing (0 = automatic).
	ArenaCapacity int
}

func (o MapOptions) withDefaults() MapOptions {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.TotalOps <= 0 {
		o.TotalOps = 1_000_000
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Keys <= 0 {
		o.Keys = 4096
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Buckets <= 0 {
		o.Buckets = 2
	}
	if o.GrowLoad <= 0 {
		o.GrowLoad = 4
	}
	if o.MovePercent <= 0 {
		o.MovePercent = 40
	}
	if o.FanPercent <= 0 {
		o.FanPercent = 25
	}
	if o.Prefill == 0 {
		o.Prefill = 512
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

// AdaptAgg are per-trial means of the maps' adaptation decision
// counters (all zero when Adaptive is off or the impl is blocking).
type AdaptAgg struct {
	Epochs, WindowGrows, WindowShrinks float64
	Attaches, Detaches                 float64
	PaceRaises, PaceDecays             float64
}

func (a *AdaptAgg) add(s adapt.Stats, trials int) {
	f := float64(trials)
	a.Epochs += float64(s.Epochs) / f
	a.WindowGrows += float64(s.WindowGrows) / f
	a.WindowShrinks += float64(s.WindowShrinks) / f
	a.Attaches += float64(s.Attaches) / f
	a.Detaches += float64(s.Detaches) / f
	a.PaceRaises += float64(s.PaceRaises) / f
	a.PaceDecays += float64(s.PaceDecays) / f
}

// MapResult aggregates the trials of one map-churn cell.
type MapResult struct {
	Options   MapOptions
	SamplesNS []float64
	Summary   stats.Summary
	Ops       int
	// Grows/Migrated/Steps are per-trial means of the two maps' grow
	// stats, showing how much rebalancing the measured interval held.
	Grows, Migrated, Steps float64
	// ElimHits/ElimMisses are per-trial means of both maps' elimination
	// counters (zero when the layer is off).
	ElimHits, ElimMisses float64
	// Adapt aggregates the adaptation decision counters.
	Adapt AdaptAgg
}

// MeanMS returns the mean adjusted duration in milliseconds.
func (r MapResult) MeanMS() float64 { return r.Summary.Mean / 1e6 }

// RunMapChurn executes every trial of one map-churn cell.
func RunMapChurn(o MapOptions) MapResult {
	o = o.withDefaults()
	Calibrate()
	res := MapResult{Options: o, Ops: o.TotalOps}
	for trial := 0; trial < o.Trials; trial++ {
		m := runMapTrial(o, uint64(trial))
		res.SamplesNS = append(res.SamplesNS, m.adjNS)
		res.Grows += m.grows / float64(o.Trials)
		res.Migrated += m.migrated / float64(o.Trials)
		res.Steps += m.steps / float64(o.Trials)
		res.ElimHits += m.elimHits / float64(o.Trials)
		res.ElimMisses += m.elimMisses / float64(o.Trials)
		res.Adapt.add(m.adapt, o.Trials)
	}
	res.Summary = stats.Summarize(res.SamplesNS)
	return res
}

// mapTrialResult carries one trial's measurements.
type mapTrialResult struct {
	adjNS, grows, migrated, steps float64
	elimHits, elimMisses          float64
	adapt                         adapt.Stats
}

// mapObjects abstracts the pair of maps (plus audit queue) so the
// worker loop is shared between the lock-free and blocking families.
// side selects the move/churn source (0: a→b, 1: b→a).
type mapObjects struct {
	insert func(t *core.Thread, side int, k, v uint64) bool
	remove func(t *core.Thread, side int, k uint64) (uint64, bool)
	lookup func(t *core.Thread, side int, k uint64) (uint64, bool)
	// move performs one keyed cross-map move; fan asks for the §8
	// MoveN fan-out into the other map plus the audit queue (lock-free
	// only; the blocking family degrades to a plain keyed move).
	move      func(t *core.Thread, side int, k uint64, fan bool)
	rebalance func(t *core.Thread) bool // nil: no rebalancer support
	collect   func(r *mapTrialResult)
}

// buildMapPair constructs the objects for one trial.
func buildMapPair(o MapOptions, rt *core.Runtime, setup *core.Thread) mapObjects {
	if o.Impl == Blocking {
		ma := blocking.NewMap(setup, o.Shards, o.Buckets, o.GrowLoad)
		mb := blocking.NewMap(setup, o.Shards, o.Buckets, o.GrowLoad)
		pick := func(side int) (*blocking.Map, *blocking.Map) {
			if side == 0 {
				return ma, mb
			}
			return mb, ma
		}
		return mapObjects{
			insert: func(t *core.Thread, side int, k, v uint64) bool {
				src, _ := pick(side)
				return src.Insert(t, k, v)
			},
			remove: func(t *core.Thread, side int, k uint64) (uint64, bool) {
				src, _ := pick(side)
				return src.Remove(t, k)
			},
			lookup: func(t *core.Thread, side int, k uint64) (uint64, bool) {
				src, _ := pick(side)
				return src.Contains(t, k)
			},
			move: func(t *core.Thread, side int, k uint64, _ bool) {
				src, dst := pick(side)
				src.MoveMap(t, dst, k, k)
			},
			collect: func(*mapTrialResult) {},
		}
	}
	ma := hashmap.NewSharded(setup, o.Shards, o.Buckets, o.GrowLoad)
	mb := hashmap.NewSharded(setup, o.Shards, o.Buckets, o.GrowLoad)
	audit := msqueue.New(setup)
	pick := func(side int) (*hashmap.Map, *hashmap.Map) {
		if side == 0 {
			return ma, mb
		}
		return mb, ma
	}
	return mapObjects{
		insert: func(t *core.Thread, side int, k, v uint64) bool {
			src, _ := pick(side)
			return src.Insert(t, k, v)
		},
		remove: func(t *core.Thread, side int, k uint64) (uint64, bool) {
			src, _ := pick(side)
			return src.Remove(t, k)
		},
		lookup: func(t *core.Thread, side int, k uint64) (uint64, bool) {
			src, _ := pick(side)
			return src.Contains(t, k)
		},
		move: func(t *core.Thread, side int, k uint64, fan bool) {
			src, dst := pick(side)
			if fan {
				// §8 fan-out: the entry leaves src and appears in dst
				// AND the audit queue in one atomic step.
				fanDst := [2]core.Inserter{dst, audit}
				tkeys := [2]uint64{k, 0}
				t.MoveN(src, fanDst[:], k, tkeys[:])
				// Keep the audit queue bounded.
				audit.Dequeue(t)
				return
			}
			t.Move(src, dst, k, k)
		},
		rebalance: func(t *core.Thread) bool {
			return ma.RebalanceStep(t) || mb.RebalanceStep(t)
		},
		collect: func(r *mapTrialResult) {
			ga, miga, sa := ma.Stats()
			gb, migb, sb := mb.Stats()
			eha, ema := ma.ElimStats()
			ehb, emb := mb.ElimStats()
			r.grows = float64(ga + gb)
			r.migrated = float64(miga + migb)
			r.steps = float64(sa + sb)
			r.elimHits = float64(eha + ehb)
			r.elimMisses = float64(ema + emb)
			r.adapt = ma.AdaptStats()
			r.adapt.Add(mb.AdaptStats())
		},
	}
}

func runMapTrial(o MapOptions, trial uint64) mapTrialResult {
	arenaCap := o.ArenaCapacity
	if arenaCap == 0 {
		arenaCap = o.Prefill*8 + o.TotalOps + (1 << 16)
	}
	rt := core.NewRuntime(core.Config{
		MaxThreads:    o.Threads + 2,
		ArenaCapacity: arenaCap,
		Elimination: elim.Config{
			Enable: o.Elimination,
			Slots:  o.ElimSlots,
			Spins:  o.ElimSpins,
		},
		Adaptive: adapt.Config{
			Enable:   o.Adaptive,
			EpochOps: o.AdaptEpochOps,
		},
		Obs: Observe,
	})
	defer harvestObs(rt)
	setup := rt.RegisterThread()
	objs := buildMapPair(o, rt, setup)
	seedRng := xrand.New(o.Seed + trial*1000003)
	keys := uint64(o.Keys)
	// nextKey samples the configured key distribution: uniform, or
	// zipfian with rank 0 the hottest key (one shared immutable Zipf;
	// each thread draws through its own rng).
	var zipf *xrand.Zipf
	if o.Zipf {
		zipf = xrand.NewZipf(keys, o.ZipfTheta)
	}
	nextKey := func(rng *xrand.State) uint64 {
		if zipf != nil {
			return zipf.Next(rng)
		}
		return rng.Uint64() % keys
	}
	for i := 0; i < o.Prefill; i++ {
		objs.insert(setup, 0, nextKey(seedRng), seedRng.Uint64())
		objs.insert(setup, 1, nextKey(seedRng), seedRng.Uint64())
	}

	var stop atomic.Bool
	var rwg sync.WaitGroup
	if o.Rebalancer && objs.rebalance != nil {
		reb := rt.RegisterThread()
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for !stop.Load() {
				if !objs.rebalance(reb) {
					runtime.Gosched()
				}
			}
		}()
	}

	perThread := o.TotalOps / o.Threads
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(o.Threads)
	elapsed := make([]time.Duration, o.Threads)
	workNS := make([]float64, o.Threads)

	for w := 0; w < o.Threads; w++ {
		th := rt.RegisterThread()
		go func(w int, th *core.Thread) {
			defer done.Done()
			if o.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			rng := xrand.New(o.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15 ^ trial)
			mean := o.Contention.workMean()
			sd := mean / workStddevFraction
			var work float64
			start.Wait()
			t0 := time.Now()
			for i := 0; i < perThread; i++ {
				k := nextKey(rng)
				side := 0
				if rng.Uint64()&1 == 0 {
					side = 1
				}
				switch {
				case o.ReadFraction > 0 && int(rng.Uint64()%100) < o.ReadFraction:
					objs.lookup(th, side, k)
				case int(rng.Uint64()%100) < o.MovePercent:
					fan := int(rng.Uint64()%100) < o.FanPercent
					objs.move(th, side, k, fan)
				default:
					switch rng.Uint64() % 3 {
					case 0:
						objs.insert(th, side, k, rng.Uint64())
					case 1:
						objs.remove(th, side, k)
					default:
						objs.lookup(th, side, k)
					}
				}
				if mean > 0 {
					w := rng.NormDuration(mean, sd)
					SpinFor(w)
					work += w
				}
			}
			elapsed[w] = time.Since(t0)
			workNS[w] = work
		}(w, th)
	}
	start.Done()
	done.Wait()
	stop.Store(true)
	rwg.Wait()

	var wall time.Duration
	var totalWork float64
	for w := 0; w < o.Threads; w++ {
		if elapsed[w] > wall {
			wall = elapsed[w]
		}
		totalWork += workNS[w]
	}
	adj := float64(wall.Nanoseconds()) - totalWork/float64(o.Threads)
	if adj < 0 {
		adj = 0
	}
	var res mapTrialResult
	res.adjNS = adj
	objs.collect(&res)
	return res
}
