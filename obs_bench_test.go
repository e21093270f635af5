// Paired overhead proof for the observability layer (see
// docs/observability.md): the disabled path must cost nothing — zero
// extra allocations and within noise on the Move hot path — because the
// instrumented hooks are nil-receiver no-ops when core.Config.Obs is
// off. Run the pair with
//
//	go test -bench 'Obs(Disabled|Enabled)' -benchmem -count 10 .
//
// and compare; TestObsDisabledNoAllocs pins the allocation half of the
// claim in CI.
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/verify"
)

// steadyOps is how many operations an allocation guard counts over
// (verify.Mallocs), after as many to warm up: enough that one allocation
// per few hundred operations (a free-list spill, a hazard scan) shows,
// where testing.AllocsPerRun's integer average would round it to 0.
const steadyOps = 100_000

// obsBenchRT builds the benchmark cell: one queue and one stack with
// one element circulating between them by Move — the composition hot
// path with descriptor publish/commit/recycle on every operation.
func obsBenchRT(obsCfg repro.ObsConfig) (*repro.Thread, *repro.Queue, *repro.Stack) {
	rt := repro.NewRuntime(repro.Config{
		MaxThreads:    2,
		ArenaCapacity: 1 << 12,
		Obs:           obsCfg,
	})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	s := repro.NewStack(th)
	q.Enqueue(th, 42)
	return th, q, s
}

func benchMovePingPong(b *testing.B, obsCfg repro.ObsConfig) {
	th, q, s := obsBenchRT(obsCfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := repro.Move(th, q, s, 0, 0); !ok {
			repro.Move(th, s, q, 0, 0)
		}
	}
}

func BenchmarkObsDisabled(b *testing.B) {
	benchMovePingPong(b, repro.ObsConfig{})
}

func BenchmarkObsMetricsOnly(b *testing.B) {
	benchMovePingPong(b, repro.ObsConfig{Metrics: true})
}

func BenchmarkObsEnabled(b *testing.B) {
	benchMovePingPong(b, repro.ObsConfig{Metrics: true, Trace: true})
}

func BenchmarkObsFull(b *testing.B) {
	benchMovePingPong(b, repro.ObsConfig{Metrics: true, Trace: true, Spans: true})
}

// TestObsDisabledNoAllocs asserts the acceptance bound directly: with
// observability off, the Move hot path performs no allocation at all
// over steadyOps operations (after warmup lets the thread allocate its
// descriptor block).
func TestObsDisabledNoAllocs(t *testing.T) {
	th, q, s := obsBenchRT(repro.ObsConfig{})
	move := func() {
		if _, ok := repro.Move(th, q, s, 0, 0); !ok {
			repro.Move(th, s, q, 0, 0)
		}
	}
	if n := verify.Mallocs(steadyOps, steadyOps, move); n != 0 {
		t.Fatalf("disabled observability: %d allocations over %d Moves, want 0", n, steadyOps)
	}
}

// TestCompositionsNoAllocs: every facade composition is
// allocation-free in steady state — failed ones included — and so is a
// drain into a reused buffer. TransferKeys returns the thread's own
// result buffer and SwapHeads keeps its scratch on the stack; DrainN's
// fresh result slice is the one exception, and th.DrainN(…, buf[:0]) is
// its allocation-free form.
func TestCompositionsNoAllocs(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 14})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	s1, s2, s3 := repro.NewStack(th), repro.NewStack(th), repro.NewStack(th)
	empty := repro.NewStack(th)
	q.Enqueue(th, 42)
	for i, s := range []*repro.Stack{s1, s2, s3} {
		s.Push(th, uint64(i))
	}
	drainQ := repro.NewQueue(th)
	for i := uint64(0); i < 8; i++ {
		drainQ.Enqueue(th, i)
	}
	dq, ds1, ds2 := []repro.Inserter{q}, []repro.Inserter{s1}, []repro.Inserter{s1, s2}
	tkeys1, tkeys2 := []uint64{0}, []uint64{0, 0}

	// a holds keys 1 and k, in different buckets of both maps; b starts
	// empty, so 1 and its bucket-mate gap would be inserted into one gap.
	a, b := repro.NewHashMap(th, 64), repro.NewHashMap(th, 64)
	k, gap := independentKey(1, a, b), uint64(2)
	for !b.SameChain(1, gap) {
		gap++
	}
	for _, key := range []uint64{1, k} {
		a.Insert(th, key, key*10)
	}
	pair, gapPair, absent := []uint64{1, k}, []uint64{1, gap}, []uint64{1, 1 << 40}
	buf := make([]uint64, 0, 8)

	for _, row := range []struct {
		name string
		fn   func()
	}{
		{"Move", func() {
			if _, ok := repro.Move(th, q, s1, 0, 0); !ok {
				repro.Move(th, s1, q, 0, 0)
			}
		}},
		{"MoveN/one target", func() {
			if _, ok := repro.MoveN(th, q, ds1, 0, tkeys1); !ok {
				repro.MoveN(th, s1, dq, 0, tkeys1)
			}
		}},
		{"MoveN/two targets", func() {
			// One element copied into s1 and s2; both copies come off.
			if _, ok := repro.MoveN(th, q, ds2, 0, tkeys2); ok {
				s2.Pop(th)
				repro.Move(th, s1, q, 0, 0)
			}
		}},
		{"TransferKeys/success", func() {
			_, there := repro.TransferKeys(th, a, b, pair, pair)
			if _, back := repro.TransferKeys(th, b, a, pair, pair); !there || !back {
				t.Fatalf("TransferKeys round trip of %v: %v, %v, want true, true", pair, there, back)
			}
		}},
		{"TransferKeys/absent source key", func() {
			if _, ok := repro.TransferKeys(th, a, b, absent, absent); ok {
				t.Fatal("TransferKeys of an absent key succeeded")
			}
		}},
		{"TransferKeys/target keys sharing an insert gap", func() {
			if _, ok := repro.TransferKeys(th, a, b, pair, gapPair); ok {
				t.Fatal("TransferKeys into one insert gap succeeded")
			}
		}},
		{"SwapHeads/2 stacks", func() {
			if !repro.SwapHeads(th, s1, s2) {
				t.Fatal("SwapHeads over two non-empty stacks failed")
			}
		}},
		{"SwapHeads/3 stacks", func() {
			if !repro.SwapHeads(th, s1, s2, s3) {
				t.Fatal("SwapHeads over three non-empty stacks failed")
			}
		}},
		{"SwapHeads/empty stack", func() {
			if repro.SwapHeads(th, s1, empty) {
				t.Fatal("SwapHeads over an empty stack succeeded")
			}
		}},
		{"Thread.DrainN/reused buffer", func() {
			buf = th.DrainN(drainQ, q, 0, 0, 8, buf[:0])
			th.DrainN(q, drainQ, 0, 0, len(buf), buf[:0])
		}},
	} {
		if n := verify.Mallocs(steadyOps, steadyOps, row.fn); n != 0 {
			t.Errorf("%s: %d allocations over %d calls, want 0", row.name, n, steadyOps)
		}
	}
}

// TestObsSpansDisabledRequestPathNoAllocs pins the span layer's half of
// the disabled-cost claim: the request-path hooks the serving layer
// calls around every request (NextReq, SetRequest, Finish) are
// nil-receiver no-ops, so a kvserver built with -spans=false runs its
// full request path — span hooks included — without allocating.
func TestObsSpansDisabledRequestPathNoAllocs(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 12})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	s := repro.NewStack(th)
	q.Enqueue(th, 42)
	spans := rt.Obs().Spans() // nil: observability fully off
	tracer := rt.Obs().Tracer()
	var sp repro.Span
	request := func() {
		// The kvserver request path's span choreography, verbatim.
		sp.Req = spans.NextReq()
		tracer.SetRequest(int(th.ID()), sp.Req)
		if _, ok := repro.Move(th, q, s, 0, 0); !ok {
			repro.Move(th, s, q, 0, 0)
		}
		spans.Finish(0, sp)
		tracer.SetRequest(int(th.ID()), 0)
	}
	if n := verify.Mallocs(steadyOps, steadyOps, request); n != 0 {
		t.Fatalf("disabled span hooks: %d allocations over %d requests, want 0", n, steadyOps)
	}
}

// TestObsEnabledNoAllocsOnHotPath documents the stronger property the
// striped registry and ring tracer were built for: even fully enabled,
// recording is allocation-free (allocations happen only at construction
// and drain).
func TestObsEnabledNoAllocsOnHotPath(t *testing.T) {
	th, q, s := obsBenchRT(repro.ObsConfig{Metrics: true, Trace: true})
	move := func() {
		if _, ok := repro.Move(th, q, s, 0, 0); !ok {
			repro.Move(th, s, q, 0, 0)
		}
	}
	if n := verify.Mallocs(steadyOps, steadyOps, move); n != 0 {
		t.Fatalf("enabled observability: %d allocations over %d Moves, want 0", n, steadyOps)
	}
}
