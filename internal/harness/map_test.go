package harness

import "testing"

func TestMapChurnDefaults(t *testing.T) {
	o := MapOptions{}.withDefaults()
	if o.Threads != 1 || o.Trials != 1 || o.Keys != 4096 || o.GrowLoad != 4 ||
		o.MovePercent != 40 || o.Prefill != 512 {
		t.Fatalf("defaults: %+v", o)
	}
}

// TestRunMapChurnSmoke runs one small cell end to end and checks the
// scenario actually measured what it promises: samples recorded, and
// grows with Move-migrated entries inside the measured interval.
func TestRunMapChurnSmoke(t *testing.T) {
	r := RunMapChurn(MapOptions{
		Threads:    2,
		TotalOps:   20000,
		Trials:     2,
		Keys:       512,
		Rebalancer: true,
	})
	if len(r.SamplesNS) != 2 {
		t.Fatalf("samples=%d want 2", len(r.SamplesNS))
	}
	if r.Summary.Mean <= 0 {
		t.Fatalf("mean=%v", r.Summary.Mean)
	}
	if r.Grows == 0 || r.Migrated == 0 {
		t.Fatalf("grows=%v migrated=%v: the churn never grew the maps", r.Grows, r.Migrated)
	}
	// Steps can be zero on a single-CPU box: the thread that seals a
	// shard usually drains it before the rebalancer gets scheduled.
	t.Logf("grows=%.1f migrated=%.1f rebalance-steps=%.1f", r.Grows, r.Migrated, r.Steps)
}

// TestRunMapChurnZipfSmoke runs the skewed cell: zipfian keys
// concentrate churn on a few hot keys (and so hot shards), and the
// scenario must still measure cleanly.
func TestRunMapChurnZipfSmoke(t *testing.T) {
	r := RunMapChurn(MapOptions{
		Threads:    2,
		TotalOps:   20000,
		Trials:     2,
		Keys:       512,
		Zipf:       true,
		Rebalancer: true,
	})
	if len(r.SamplesNS) != 2 {
		t.Fatalf("samples=%d want 2", len(r.SamplesNS))
	}
	if r.Summary.Mean <= 0 {
		t.Fatalf("mean=%v", r.Summary.Mean)
	}
	if r.Grows == 0 {
		t.Fatal("skewed churn never grew the maps")
	}
	t.Logf("zipf cell: grows=%.1f migrated=%.1f", r.Grows, r.Migrated)
}

// TestRunMapChurnElimSmoke: the elimination-enabled cell must run and
// report its counters (hits need contention luck; misses are certain
// once any insert parks mid-grow, so only sanity is asserted).
func TestRunMapChurnElimSmoke(t *testing.T) {
	r := RunMapChurn(MapOptions{
		Threads:     2,
		TotalOps:    20000,
		Trials:      1,
		Keys:        256,
		Elimination: true,
	})
	if len(r.SamplesNS) != 1 || r.Summary.Mean <= 0 {
		t.Fatalf("bad result: %+v", r.Summary)
	}
	t.Logf("elim cell: hits=%.1f misses=%.1f", r.ElimHits, r.ElimMisses)
}

// TestRunMapChurnBlockingSmoke: the lock-striped blocking baseline
// runs the same keyed cell (fan-outs degrade to plain keyed moves).
func TestRunMapChurnBlockingSmoke(t *testing.T) {
	r := RunMapChurn(MapOptions{
		Impl:     Blocking,
		Threads:  2,
		TotalOps: 20000,
		Trials:   2,
		Keys:     512,
	})
	if len(r.SamplesNS) != 2 || r.Summary.Mean <= 0 {
		t.Fatalf("bad result: %+v", r.Summary)
	}
	if r.Grows != 0 || r.Migrated != 0 {
		t.Fatalf("blocking cell reported lock-free grow stats: %+v", r)
	}
}

// TestRunMapChurnAdaptiveSmoke: the adaptive cell completes and its
// controllers sample epochs (tiny epochs so 20k ops cross many).
func TestRunMapChurnAdaptiveSmoke(t *testing.T) {
	r := RunMapChurn(MapOptions{
		Threads:       2,
		TotalOps:      20000,
		Trials:        1,
		Keys:          256,
		Adaptive:      true,
		AdaptEpochOps: 256,
	})
	if len(r.SamplesNS) != 1 || r.Summary.Mean <= 0 {
		t.Fatalf("bad result: %+v", r.Summary)
	}
	if r.Adapt.Epochs == 0 {
		t.Fatal("adaptive cell sampled no epochs")
	}
	t.Logf("adaptive cell: epochs=%.1f grows=%.1f attaches=%.1f window±=%.1f/%.1f",
		r.Adapt.Epochs, r.Grows, r.Adapt.Attaches, r.Adapt.WindowGrows, r.Adapt.WindowShrinks)
}
