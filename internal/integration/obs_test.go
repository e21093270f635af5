package integration

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hashmap"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// These tests pin the observability layer to the protocol it observes:
// the tracer's help events must attribute helper and victim correctly
// (the regression the kcas-publish park makes deterministic), and the
// registry's counters must reconcile exactly with the legacy stat
// accessors they absorbed — same atomics, same numbers, no drift.

func newObsRT(threads int, plan *fault.Plan) *core.Runtime {
	cfg := core.Config{
		MaxThreads:    threads,
		ArenaCapacity: 1 << 18,
		Obs:           obs.Config{Metrics: true, Trace: true},
	}
	if plan != nil {
		cfg.Fault = plan
	}
	return core.NewRuntime(cfg)
}

// TestTraceAttributesHelpToParkedOwner parks a mover immediately after
// it publishes its descriptor, forces a peer to help the orphaned
// operation, and asserts the drained trace contains the help event with
// the right attribution: recorded by the helper thread, with Peer
// naming the parked owner. This is the deterministic form of the
// helping-attribution guarantee — the park holds the announcement open
// so the peer's read cannot avoid helping.
func TestTraceAttributesHelpToParkedOwner(t *testing.T) {
	const key = 5
	plan := fault.NewPlan()
	rt := newObsRT(3, plan)
	setup := rt.RegisterThread()
	a := hashmap.NewSharded(setup, 1, 4, 0)
	b := hashmap.NewSharded(setup, 1, 4, 0)
	if !a.Insert(setup, key, 777) {
		t.Fatal("seed insert failed")
	}
	victim := rt.RegisterThread()
	plan.Park(fault.KCASAfterPublish, fault.Nth(1).OnThread(victim.ID()))

	done := make(chan struct{})
	go func() {
		defer close(done)
		victim.Move(a, b, key, key)
	}()
	for i := 0; plan.Parked() == 0; i++ {
		if i > 5000 {
			t.Fatal("victim never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// The owner is parked after publish; the sweep's reads find the
	// announced descriptor and must enter the helping path.
	sweepOne(t, setup, a, b, key)
	plan.Release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim did not return after release")
	}

	events := rt.Obs().Tracer().Drain()
	var publishes, helps int
	var sawAttributedHelp bool
	for _, ev := range events {
		switch ev.Kind {
		case obs.EvPublish:
			publishes++
			if ev.TID != int32(victim.ID()) {
				t.Fatalf("publish recorded by tid %d, want victim %d", ev.TID, victim.ID())
			}
		case obs.EvHelp:
			helps++
			if ev.TID == int32(victim.ID()) {
				t.Fatalf("help event recorded by the victim itself (tid %d)", ev.TID)
			}
			if ev.Peer == int32(victim.ID()) {
				sawAttributedHelp = true
			}
		}
	}
	if publishes == 0 {
		t.Fatal("no publish event in trace — the park fired after publish, so one must exist")
	}
	if helps == 0 {
		t.Fatal("no help event in trace — the peer completed a parked move without recording help")
	}
	if !sawAttributedHelp {
		t.Fatalf("no help event attributes the parked owner %d as its peer", victim.ID())
	}
	// The registry agrees with the trace.
	if got := rt.Obs().Metrics().Value(obs.KCASHelp); got != uint64(helps) {
		t.Fatalf("kcas_helps_total=%d but trace has %d help events", got, helps)
	}
}

// TestMetricsReconcileWithLegacyStats races movers between two maps,
// quiesces, and checks the registry snapshot against the legacy stat
// accessors it absorbed, plus the protocol's own conservation law:
// every published descriptor was decided exactly once, so publishes
// equal commits plus aborts in a kill-free run.
func TestMetricsReconcileWithLegacyStats(t *testing.T) {
	const workers = 4
	const tokens = 64
	rt := newObsRT(workers+1, nil)
	setup := rt.RegisterThread()
	a := hashmap.NewSharded(setup, 2, 4, 0)
	b := hashmap.NewSharded(setup, 2, 4, 0)
	for i := uint64(0); i < tokens; i++ {
		if !a.Insert(setup, i, 1000+i) {
			t.Fatalf("seed insert %d failed", i)
		}
	}
	ths := make([]*core.Thread, workers)
	for w := range ths {
		ths[w] = rt.RegisterThread()
	}
	doneCh := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			th := ths[w]
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < 400; i++ {
				k := rng.Uint64() % tokens
				if w%2 == 0 {
					th.Move(a, b, k, k)
				} else {
					th.Move(b, a, k, k)
				}
			}
			doneCh <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-doneCh
	}

	snap := rt.Obs().Metrics().Snapshot()
	pub := snap.Get("kcas_publish_total")
	dec := snap.Get("kcas_commits_total") + snap.Get("kcas_aborts_total")
	if pub == 0 {
		t.Fatal("kcas_publish_total is zero after thousands of moves")
	}
	if pub != dec {
		t.Fatalf("kcas_publish_total=%d but commits+aborts=%d — an announced descriptor was never decided (or double-counted)", pub, dec)
	}
	// The map's pulled counters match its own accessors.
	var retries uint64
	for _, m := range []*hashmap.Map{a, b} {
		for _, n := range m.ContentionStats() {
			retries += n
		}
	}
	if got := snap.Get("cas_retries_total"); got != retries {
		t.Fatalf("cas_retries_total=%d, maps report %d", got, retries)
	}
}
