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
// over steadyOps operations (after warmup lets the descriptor pool carve
// its blocks).
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
