package integration

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/linearize"
	"repro/internal/msqueue"
)

// These tests aim the linearizability oracle and a conservation
// invariant at the sharded map's weakest moment: concurrent
// insert/remove/get/move operations racing a shard grow, while every
// relocated entry travels between buckets through MoveN.

func kv(k, v uint64) uint64 { return k<<32 | v }

// runRecordedMaps executes one recorded window of random keyed
// operations over two deliberately tiny sharded maps while a rebalancer
// goroutine forces and drives grows. Rebalancing is internal
// reorganization with no observable effect, so it is not recorded — the
// whole point is that the history must stay linearizable regardless.
func runRecordedMaps(t *testing.T, seed uint64, opsPerThread, threads int) ([]linearize.Op, linearize.Objects) {
	rt := newRT(threads + 2)
	setup := rt.RegisterThread()
	// 2 shards × 1 bucket with a grow threshold of 2 entries/bucket:
	// the handful of keys below is already enough to trigger grows.
	ma := hashmap.NewSharded(setup, 2, 1, 2)
	mb := hashmap.NewSharded(setup, 2, 1, 2)
	model := linearize.Objects{
		Kinds:   []linearize.Kind{linearize.Keyed, linearize.Keyed},
		Initial: [][]linearize.Elem{{{Key: 1, Val: 11}, {Key: 2, Val: 12}}, {{Key: 3, Val: 13}}},
	}
	for _, e := range model.Initial[0] {
		ma.Insert(setup, e.Key, e.Val)
	}
	for _, e := range model.Initial[1] {
		mb.Insert(setup, e.Key, e.Val)
	}

	var stop atomic.Bool
	var rwg sync.WaitGroup
	reb := rt.RegisterThread()
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for !stop.Load() {
			did := ma.RebalanceStep(reb)
			if mb.RebalanceStep(reb) {
				did = true
			}
			if !did {
				ma.Grow(reb)
				mb.Grow(reb)
				runtime.Gosched()
			}
		}
	}()

	const keys = 6 // small key space keeps operations colliding
	rec := &recorder{}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPerThread; i++ {
				k := next()%keys + 1
				a, b := ma, mb
				side := "A"
				if next()&1 == 0 {
					a, b = mb, ma
					side = "B"
				}
				inv := rec.clock.Add(1)
				switch next() % 4 {
				case 0:
					v := next()%1000 + 100
					ok := a.Insert(th, k, v)
					rec.record(w, "ins"+side, kv(k, v), 0, ok, inv, rec.clock.Add(1))
				case 1:
					v, ok := a.Remove(th, k)
					rec.record(w, "rem"+side, k, v, ok, inv, rec.clock.Add(1))
				case 2:
					v, ok := a.Contains(th, k)
					rec.record(w, "get"+side, k, v, ok, inv, rec.clock.Add(1))
				default:
					tk := next()%keys + 1
					name := "moveAB"
					if side == "B" {
						name = "moveBA"
					}
					v, ok := th.Move(a, b, k, tk)
					rec.record(w, name, kv(k, tk), v, ok, inv, rec.clock.Add(1))
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	return rec.ops, model
}

// TestMapHistoriesLinearizableDuringGrow is the map-side analogue of
// Theorem 2's check: histories of keyed operations racing grows must be
// linearizable against a model in which each operation — including the
// cross-map move — is one atomic step.
func TestMapHistoriesLinearizableDuringGrow(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		hist, model := runRecordedMaps(t, seed, 5, 3)
		if len(hist) > linearize.MaxOps {
			t.Fatalf("history too long: %d", len(hist))
		}
		if !linearize.Check(model, hist) {
			t.Fatalf("seed %d: map history racing grow NOT linearizable:\n%v", seed, hist)
		}
	}
}

// TestMapConservationAcrossGrows runs the exactly-once invariant hard:
// unique tokens circulate between two growing maps through keyed moves;
// after every round each token must exist in exactly one map with its
// value intact, and the per-shard counters must agree with a full walk.
func TestMapConservationAcrossGrows(t *testing.T) {
	const workers = 4
	const tokens = 192
	const rounds = 3
	rt := newRT(workers + 2)
	setup := rt.RegisterThread()
	ma := hashmap.NewSharded(setup, 2, 1, 3)
	mb := hashmap.NewSharded(setup, 2, 1, 3)
	for i := uint64(1); i <= tokens; i++ {
		if i%2 == 0 {
			ma.Insert(setup, i, i*31)
		} else {
			mb.Insert(setup, i, i*31)
		}
	}
	reb := rt.RegisterThread()
	workerTh := make([]*core.Thread, workers)
	for w := range workerTh {
		workerTh[w] = rt.RegisterThread()
	}
	for round := 0; round < rounds; round++ {
		var stop atomic.Bool
		var rwg sync.WaitGroup
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for !stop.Load() {
				if !ma.RebalanceStep(reb) && !mb.RebalanceStep(reb) {
					runtime.Gosched()
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := workerTh[w]
				rng := uint64(w+1)*0x9e3779b97f4a7c15 + uint64(round)
				next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
				for i := 0; i < 3000; i++ {
					tok := next()%tokens + 1
					if next()&1 == 0 {
						th.Move(ma, mb, tok, tok)
					} else {
						th.Move(mb, ma, tok, tok)
					}
				}
				th.FlushMemory()
			}(w)
		}
		wg.Wait()
		stop.Store(true)
		rwg.Wait()
		ma.Quiesce(setup)
		mb.Quiesce(setup)

		for i := uint64(1); i <= tokens; i++ {
			va, inA := ma.Contains(setup, i)
			vb, inB := mb.Contains(setup, i)
			if inA == inB {
				t.Fatalf("round %d: token %d in both=%v maps", round, i, inA)
			}
			v := va
			if inB {
				v = vb
			}
			if v != i*31 {
				t.Fatalf("round %d: token %d corrupted to %d", round, i, v)
			}
		}
		if got := ma.Len(setup) + mb.Len(setup); got != tokens {
			t.Fatalf("round %d: counters say %d tokens, want %d", round, got, tokens)
		}
		if got := len(ma.Keys(setup)) + len(mb.Keys(setup)); got != tokens {
			t.Fatalf("round %d: bucket walk finds %d tokens, want %d", round, got, tokens)
		}
	}
	ga, sa, _ := ma.Stats()
	gb, sb, _ := mb.Stats()
	if ga+gb == 0 || sa+sb == 0 {
		t.Fatalf("grows=%d/%d sentinels=%d/%d: the test never exercised a grow", ga, gb, sa, sb)
	}
	t.Logf("grows=%d+%d sentinels=%d+%d", ga, gb, sa, sb)
}

// TestMoveNFanOutDuringGrow drives the §8 extension against a growing
// map: MoveN removes a key from one map and inserts it into a second
// map and an audit queue atomically, while the source keeps growing.
func TestMoveNFanOutDuringGrow(t *testing.T) {
	rt := newRT(3)
	setup := rt.RegisterThread()
	ma := hashmap.NewSharded(setup, 2, 1, 2)
	mb := hashmap.NewSharded(setup, 2, 1, 1<<30)
	q := msqueue.New(setup)

	const n = 300
	for i := uint64(1); i <= n; i++ {
		ma.Insert(setup, i, i*7)
	}
	ma.Grow(setup) // doubled, no sentinel linked: the fan-outs meet buckets in every state

	th := rt.RegisterThread()
	moved := 0
	for i := uint64(1); i <= n; i++ {
		// Link a sentinel between fan-outs, so that some moves find their
		// bucket's already there and others link it themselves.
		ma.RebalanceStep(th)
		if _, ok := th.MoveN(ma, []core.Inserter{mb, q}, i, []uint64{i, 0}); ok {
			moved++
		}
	}
	for ma.RebalanceStep(th) {
	}
	if moved != n {
		t.Fatalf("moved %d of %d entries out of a growing map", moved, n)
	}
	if got := ma.Len(setup); got != 0 {
		t.Fatalf("source still holds %d entries", got)
	}
	if got := mb.Len(setup); got != n {
		t.Fatalf("target map holds %d entries, want %d", got, n)
	}
	if got := q.Len(setup); got != n {
		t.Fatalf("audit queue holds %d entries, want %d", got, n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := mb.Contains(setup, i); !ok || v != i*7 {
			t.Fatalf("entry %d=(%d,%v) corrupted by fan-out", i, v, ok)
		}
	}
}
