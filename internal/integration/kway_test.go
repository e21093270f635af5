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
	"repro/internal/tstack"
)

// The >2-object compositions the unified k-word CAS engine opens beyond
// core's chains: SwapHeads (k-way head exchange) under the
// linearizability oracle, and every composed operation racing grows and
// churn on one runtime. Move, MoveN, DrainN and TransferN on every
// container pair are core's TestConformance.

// TestSwapHeadsLinearizable records windows of pushes, pops and
// two-stack head swaps and checks them against a model in which the
// swap exchanges both heads in one atomic step.
func TestSwapHeadsLinearizable(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		const threads = 3
		rt := newRT(threads + 1)
		setup := rt.RegisterThread()
		sa := tstack.New(setup)
		sb := tstack.New(setup)
		model := linearize.Objects{
			Kinds:   []linearize.Kind{linearize.LIFO, linearize.LIFO},
			Initial: [][]linearize.Elem{{{Val: 1}, {Val: 2}}, {{Val: 3}}},
		}
		for _, e := range model.Initial[0] {
			sa.Push(setup, e.Val)
		}
		for _, e := range model.Initial[1] {
			sb.Push(setup, e.Val)
		}

		rec := &recorder{}
		var val atomic.Uint64
		val.Store(100)
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := rt.RegisterThread()
				rng := seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15
				next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
				for i := 0; i < 5; i++ {
					inv := rec.clock.Add(1)
					switch next() % 5 {
					case 0:
						v := val.Add(1)
						sa.Push(th, v)
						rec.record(w, "insA", v, 0, true, inv, rec.clock.Add(1))
					case 1:
						v, ok := sa.Pop(th)
						rec.record(w, "remA", 0, v, ok, inv, rec.clock.Add(1))
					case 2:
						v := val.Add(1)
						sb.Push(th, v)
						rec.record(w, "insB", v, 0, true, inv, rec.clock.Add(1))
					case 3:
						v, ok := sb.Pop(th)
						rec.record(w, "remB", 0, v, ok, inv, rec.clock.Add(1))
					default:
						ok := tstack.SwapHeads(th, sa, sb)
						rec.record(w, "swapAB", 0, 0, ok, inv, rec.clock.Add(1))
					}
				}
				th.FlushMemory()
			}(w)
		}
		wg.Wait()
		if !linearize.Check(model, rec.ops) {
			t.Fatalf("seed %d: SwapHeads history NOT linearizable:\n%v", seed, rec.ops)
		}
	}
}

// TestComposedOpsRaceGrowsAndChurn races every composed operation
// against the machinery most likely to disturb it: SwapHeads against
// stacks under push/pop churn, TransferN against growing maps, DrainN
// against reverse moves — all on one runtime, with token conservation
// checked at the end. Run under -race this is the integration sweep the
// CI race job executes.
func TestComposedOpsRaceGrowsAndChurn(t *testing.T) {
	const swappers = 2
	const churners = 2
	const transferers = 2
	const drainers = 2
	const iters = 2000

	rt := core.NewRuntime(core.Config{
		MaxThreads:    swappers + churners + transferers + drainers + 2,
		ArenaCapacity: 1 << 17,
	})
	setup := rt.RegisterThread()

	// Swap cell: 3 stacks, fixed token population.
	const kStacks = 3
	const perStack = 64
	stacks := make([]*tstack.Stack, kStacks)
	stackTokens := 0
	for i := range stacks {
		stacks[i] = tstack.New(setup)
		for j := 0; j < perStack; j++ {
			stacks[i].Push(setup, uint64(i*perStack+j+1))
			stackTokens++
		}
	}

	// Transfer cell: two tiny growing maps sharing a key population.
	const mapKeys = 96
	ma := hashmap.NewSharded(setup, 2, 1, 3)
	mb := hashmap.NewSharded(setup, 2, 1, 3)
	for k := uint64(1); k <= mapKeys; k++ {
		ma.Insert(setup, k, k*31)
	}

	// Drain cell: a queue/stack pair.
	const drainTokens = 128
	q := msqueue.New(setup)
	ds := tstack.New(setup)
	for j := uint64(0); j < drainTokens; j++ {
		q.Enqueue(setup, j+1)
	}

	var stop atomic.Bool
	var rwg sync.WaitGroup
	reb := rt.RegisterThread()
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
	spawn := func(n int, body func(w int, th *core.Thread)) {
		for w := 0; w < n; w++ {
			wg.Add(1)
			th := rt.RegisterThread()
			go func(w int, th *core.Thread) {
				defer wg.Done()
				body(w, th)
				th.FlushMemory()
			}(w, th)
		}
	}
	spawn(swappers, func(w int, th *core.Thread) {
		for i := 0; i < iters; i++ {
			tstack.SwapHeads(th, stacks...)
		}
	})
	spawn(churners, func(w int, th *core.Thread) {
		rng := uint64(w+1) * 0x9e3779b97f4a7c15
		next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
		for i := 0; i < iters; i++ {
			from := stacks[next()%kStacks]
			to := stacks[next()%kStacks]
			if v, ok := from.Pop(th); ok {
				for !to.Push(th, v) {
				}
			}
		}
	})
	spawn(transferers, func(w int, th *core.Thread) {
		rng := uint64(w+7) * 0x9e3779b97f4a7c15
		next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
		for i := 0; i < iters; i++ {
			a, b := ma, mb
			if next()&1 == 0 {
				a, b = mb, ma
			}
			s1 := next()%mapKeys + 1
			s2 := next()%mapKeys + 1
			if s1 == s2 {
				continue
			}
			th.TransferN(a, b, []uint64{s1, s2}, []uint64{s1, s2})
		}
	})
	spawn(drainers, func(w int, th *core.Thread) {
		out := make([]uint64, 4)
		for i := 0; i < iters; i++ {
			if w%2 == 0 {
				th.DrainN(q, ds, 0, 0, 4, out[:0])
			} else {
				th.Move(ds, q, 0, 0)
			}
		}
	})
	wg.Wait()
	stop.Store(true)
	rwg.Wait()

	// Conservation: every cell must hold exactly its initial tokens.
	got := 0
	for _, s := range stacks {
		got += s.Len(setup)
	}
	if got != stackTokens {
		t.Fatalf("swap cell: %d tokens, want %d", got, stackTokens)
	}
	ma.Quiesce(setup)
	mb.Quiesce(setup)
	for k := uint64(1); k <= mapKeys; k++ {
		va, inA := ma.Contains(setup, k)
		vb, inB := mb.Contains(setup, k)
		if inA == inB {
			t.Fatalf("key %d: in both/neither map (A=%v B=%v)", k, inA, inB)
		}
		v := va
		if inB {
			v = vb
		}
		if v != k*31 {
			t.Fatalf("key %d: value corrupted to %d", k, v)
		}
	}
	if got := q.Len(setup) + ds.Len(setup); got != drainTokens {
		t.Fatalf("drain cell: %d tokens, want %d", got, drainTokens)
	}
	grows, sentinels, _ := ma.Stats()
	gb, sb, _ := mb.Stats()
	if grows+gb == 0 {
		t.Fatal("no grow happened; the race was not exercised")
	}
	t.Logf("grows=%d sentinels=%d", grows+gb, sentinels+sb)
}
