// Benchmarks regenerating every figure of the paper's evaluation plus
// the ablations listed below. Each figure benchmark emits one
// sub-benchmark per (mix, implementation, thread count) cell and reports
// ms/trial (the figures' y-axis: total time for the trial's operations,
// local work subtracted) alongside Go's ns/op.
//
//	go test -bench 'Fig2'        # Figure 2 (queue/stack)
//	go test -bench 'Fig3'        # Figure 3 (two queues)
//	go test -bench 'Fig4'        # Figure 4 (two stacks)
//	go test -bench 'Backoff'     # §6/§7 backoff variants
//	go test -bench 'A1_Overhead' # scas/read overhead on plain ops
//	go test -bench 'A2_StackABA' # §7 ABA-counter trade-off
//	go test -bench 'A3_DCAS'     # DCAS vs two plain CASes
//	go test -bench 'MoveN'       # §8 n-object extension
//	go test -bench 'HashMove'    # §1.1 hash-map scenario
//
// The paper's full parameters are 5M ops × 50 trials × 1–16 threads; the
// benchmarks run a scaled-down cell (100k ops) so a full sweep stays
// tractable. A cell with more threads than processors is named
// threads=N/oversub: it still runs, but its adjusted time over-credits
// local work (harness.Oversubscribed) and no verdict is read from it.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/hazard"
	"repro/internal/kcas"
	"repro/internal/msqueue"
	"repro/internal/plainqueue"
	"repro/internal/plainstack"
	"repro/internal/tstack"
	"repro/internal/word"
)

const benchOps = 100_000

var benchThreads = []int{1, 2, 4, 8, 16}

// benchFigure runs one paper figure: every panel (operation mix), both
// implementations, across thread counts.
func benchFigure(b *testing.B, pair harness.Pair, backoff bool) {
	for _, mix := range []harness.Mix{harness.MoveOnly, harness.InsertRemoveOnly, harness.Mixed} {
		for _, impl := range []harness.Impl{harness.LockFree, harness.Blocking} {
			for _, threads := range benchThreads {
				name := fmt.Sprintf("mix=%s/impl=%s/threads=%d", sanitize(mix.String()), impl, threads)
				if harness.Oversubscribed(threads) {
					name += "/oversub"
				}
				b.Run(name, func(b *testing.B) {
					o := harness.Options{
						Impl: impl, Pair: pair, Mix: mix,
						Contention: harness.High,
						Threads:    threads,
						TotalOps:   benchOps,
						Trials:     1,
						Backoff:    backoff,
						Prefill:    512,
						Pin:        true,
					}
					var totalNS float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r := harness.Run(o)
						totalNS += r.Summary.Mean
					}
					b.StopTimer()
					b.ReportMetric(totalNS/float64(b.N)/1e6, "ms/trial")
					b.ReportMetric(float64(benchOps)*float64(b.N)*1e9/totalNS, "ops/s")
				})
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			out = append(out, '+')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// BenchmarkFig2 regenerates Figure 2: queue/stack composition, no
// backoff.
func BenchmarkFig2_QueueStack(b *testing.B) { benchFigure(b, harness.QueueStack, false) }

// BenchmarkFig3 regenerates Figure 3: two queues, no backoff.
func BenchmarkFig3_Queue(b *testing.B) { benchFigure(b, harness.QueueQueue, false) }

// BenchmarkFig4 regenerates Figure 4: two stacks, no backoff.
func BenchmarkFig4_Stack(b *testing.B) { benchFigure(b, harness.StackStack, false) }

// BenchmarkBackoff reproduces the §6/§7 backoff discussion (queue/stack
// pairing with exponential backoff; blocking improves under high
// contention, lock-free stays competitive).
func BenchmarkBackoff_QueueStack(b *testing.B) { benchFigure(b, harness.QueueStack, true) }

// --- A1: overhead of scas/read on the original operations ----------------

func BenchmarkA1_Overhead_Queue_MoveReady(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	q := msqueue.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(th, uint64(i))
		q.Dequeue(th)
	}
}

func BenchmarkA1_Overhead_Queue_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	q := plainqueue.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(th, uint64(i))
		q.Dequeue(th)
	}
}

func BenchmarkA1_Overhead_Stack_MoveReady(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := tstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

func BenchmarkA1_Overhead_Stack_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := plainstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

// Contended A1: multiple threads doing plain operations on the
// move-ready vs plain queue.
func benchContendedQueuePair(b *testing.B, moveReady bool, threads int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 18})
	setup := rt.RegisterThread()
	var enq func(*core.Thread, uint64)
	var deq func(*core.Thread) (uint64, bool)
	if moveReady {
		q := msqueue.New(setup)
		enq = func(t *core.Thread, v uint64) { q.Enqueue(t, v) }
		deq = func(t *core.Thread) (uint64, bool) { return q.Dequeue(t) }
	} else {
		q := plainqueue.New(setup)
		enq = q.Enqueue
		deq = q.Dequeue
	}
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				enq(th, uint64(i))
				deq(th)
			}
		}(th)
	}
	wg.Wait()
}

func BenchmarkA1_Contended_Queue_MoveReady_4T(b *testing.B) { benchContendedQueuePair(b, true, 4) }
func BenchmarkA1_Contended_Queue_Plain_4T(b *testing.B)     { benchContendedQueuePair(b, false, 4) }

// --- A2: §7 stack ABA counter --------------------------------------------

// benchStackMoves: threads move a small token population between two
// stacks — the §7 worst case for false helping.
func benchStackMoves(b *testing.B, versioned bool, threads int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 18})
	setup := rt.RegisterThread()
	mk := func() *tstack.Stack {
		if versioned {
			return tstack.NewVersioned(setup)
		}
		return tstack.New(setup)
	}
	s1, s2 := mk(), mk()
	for i := uint64(1); i <= 64; i++ {
		s1.Push(setup, i)
	}
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread, w int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				if (i+w)&1 == 0 {
					th.Move(s1, s2, 0, 0)
				} else {
					th.Move(s2, s1, 0, 0)
				}
			}
		}(th, w)
	}
	wg.Wait()
	b.StopTimer()
	helps, strays, late := rt.KCASPool().Stats()
	b.ReportMetric(float64(helps)/float64(b.N), "helps/op")
	b.ReportMetric(float64(strays)/float64(b.N), "strays/op")
	_ = late
}

func BenchmarkA2_StackABA_Move_Plain_4T(b *testing.B)     { benchStackMoves(b, false, 4) }
func BenchmarkA2_StackABA_Move_Versioned_4T(b *testing.B) { benchStackMoves(b, true, 4) }

// The other side of the §7 trade-off: versioning slows the normal
// operations slightly.
func benchStackPlainOps(b *testing.B, versioned bool) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	var s *tstack.Stack
	if versioned {
		s = tstack.NewVersioned(th)
	} else {
		s = tstack.New(th)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

func BenchmarkA2_StackABA_PlainOps_Plain(b *testing.B)     { benchStackPlainOps(b, false) }
func BenchmarkA2_StackABA_PlainOps_Versioned(b *testing.B) { benchStackPlainOps(b, true) }

// --- A3: DCAS cost ---------------------------------------------------------

// benchSlots is the raw-engine slot assignment for the A3 benchmarks
// (mirrors core's layout: 3 descriptor slots, pair mirrors at 6/7,
// k-word mirrors from 8).
var benchSlots = kcas.Slots{PairHPD: 0, KHPD: 1, RDCSSHPD: 2, PairMirror1: 6, PairMirror2: 7, KMirrorBase: 8}

func BenchmarkA3_DCAS_Uncontended(b *testing.B) {
	nodeDom := hazard.New(2, 24)
	descDom := hazard.New(2, 3)
	pool := kcas.NewPool(1<<14, descDom)
	ctx := kcas.NewCtx(pool, nodeDom, 0, benchSlots)
	var w1, w2 word.Word
	v1, v2 := word.MakeNode(100, 0), word.MakeNode(101, 0)
	w1.Store(v1)
	w2.Store(v2)
	n1, n2 := word.MakeNode(102, 0), word.MakeNode(103, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ref := ctx.AllocPair()
		e1, e2 := &d.Entries[0], &d.Entries[1]
		e1.Ptr, e1.Old, e1.New = &w1, v1, n1
		e2.Ptr, e2.Old, e2.New = &w2, v2, n2
		if ctx.ExecutePair(d, ref) != kcas.Success {
			b.Fatal("uncontended DCAS failed")
		}
		ctx.Retire(d, ref)
		v1, n1 = n1, v1
		v2, n2 = n2, v2
	}
}

func BenchmarkA3_TwoPlainCAS(b *testing.B) {
	var w1, w2 word.Word
	v1, v2 := word.MakeNode(100, 0), word.MakeNode(101, 0)
	w1.Store(v1)
	w2.Store(v2)
	n1, n2 := word.MakeNode(102, 0), word.MakeNode(103, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w1.CAS(v1, n1) || !w2.CAS(v2, n2) {
			b.Fatal("CAS failed")
		}
		v1, n1 = n1, v1
		v2, n2 = n2, v2
	}
}

func BenchmarkA3_DCAS_Contended_4T(b *testing.B) {
	const threads = 4
	nodeDom := hazard.New(threads, 24)
	descDom := hazard.New(threads, 3)
	pool := kcas.NewPool(1<<16, descDom)
	var w1, w2 word.Word
	w1.Store(word.MakeNode(100, 0))
	w2.Store(word.MakeNode(101, 0))
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ctx := kcas.NewCtx(pool, nodeDom, t, benchSlots)
			for i := 0; i < perThread; i++ {
				o1 := ctx.Read(&w1)
				o2 := ctx.Read(&w2)
				d, ref := ctx.AllocPair()
				e1, e2 := &d.Entries[0], &d.Entries[1]
				e1.Ptr, e1.Old, e1.New = &w1, o1, word.MakeNode(200+uint64(t)<<8+uint64(i&0xff), 0)
				e2.Ptr, e2.Old, e2.New = &w2, o2, word.MakeNode(300+uint64(t)<<8+uint64(i&0xff), 0)
				if ctx.ExecutePair(d, ref) == kcas.FirstFailed {
					ctx.FreeDirect(d, ref)
				} else {
					ctx.Retire(d, ref)
				}
			}
			ctx.Flush()
		}(t)
	}
	wg.Wait()
}

// --- E-MOVEN: §8 extension --------------------------------------------------

func benchMoveN(b *testing.B, targets int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	src := msqueue.New(th)
	dsts := make([]core.Inserter, targets)
	keys := make([]uint64, targets)
	sinks := make([]*tstack.Stack, targets)
	for i := range dsts {
		sinks[i] = tstack.New(th)
		dsts[i] = sinks[i]
	}
	src.Enqueue(th, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.MoveN(src, dsts, 0, keys); !ok {
			b.Fatal("MoveN failed")
		}
		// Recycle: drain one stack back into the source.
		v, _ := sinks[0].Pop(th)
		src.Enqueue(th, v)
		for j := 1; j < targets; j++ {
			sinks[j].Pop(th)
		}
	}
}

func BenchmarkMoveN_1Target(b *testing.B)  { benchMoveN(b, 1) }
func BenchmarkMoveN_2Targets(b *testing.B) { benchMoveN(b, 2) }
func BenchmarkMoveN_4Targets(b *testing.B) { benchMoveN(b, 4) }
func BenchmarkMoveN_7Targets(b *testing.B) { benchMoveN(b, 7) }

// Move (DCAS-based) vs MoveN with one target (MCAS-based): the cost of
// generality.
func BenchmarkMoveN_vs_Move_DCAS(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 18})
	th := rt.RegisterThread()
	src := msqueue.New(th)
	dst := tstack.New(th)
	src.Enqueue(th, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := th.Move(src, dst, 0, 0)
		w, _ := th.Move(dst, src, 0, 0)
		_, _ = v, w
	}
}

// --- E-MAP: sharded map -----------------------------------------------------

// Plain keyed throughput on one sharded map, no moves: the map's own
// hot path with grows amortized in.
func BenchmarkMap_InsertRemove_1T(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 8191
		m.Insert(th, k, k)
		m.Remove(th, k)
	}
}

// --- E-HASH: §1.1 scenario ---------------------------------------------------

func BenchmarkHashMove_MapToQueue(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 64)
	q := repro.NewQueue(th)
	m.Insert(th, 1, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.Move(m, q, 1, 0); !ok {
			b.Fatal("map→queue move failed")
		}
		if _, ok := th.Move(q, m, 0, 1); !ok {
			b.Fatal("queue→map move failed")
		}
	}
}
