package integration

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hashmap"
	"repro/internal/xrand"
)

// These tests make the paper's central liveness claim executable: the
// helping protocol means a thread that stalls, parks or dies inside a
// composed operation's critical window cannot wedge the system — peers
// complete (or abort) the published descriptor and conservation holds.
// The fault injector (internal/fault) provides the adversarial
// scheduler: deterministic stalls, parks and hard kills at the
// descriptor-protocol windows.

func newFaultRT(threads int, plan *fault.Plan) *core.Runtime {
	return core.NewRuntime(core.Config{
		MaxThreads:    threads,
		ArenaCapacity: 1 << 18,
		DescCapacity:  1 << 16,
		Fault:         plan,
	})
}

// sweepOne asserts key lives in exactly one of the two maps and
// returns its value. The Contains reads themselves help any announced
// descriptor over the key's words to completion, so calling this on a
// quiesced-but-poisoned state (a parked or killed mover) both
// completes and verifies the move.
func sweepOne(t *testing.T, th *core.Thread, a, b *hashmap.Map, key uint64) uint64 {
	t.Helper()
	va, inA := a.Contains(th, key)
	vb, inB := b.Contains(th, key)
	if inA == inB {
		t.Fatalf("key %d: inA=%v inB=%v — want exactly one (lost or duplicated entry)", key, inA, inB)
	}
	if inA {
		return va
	}
	return vb
}

// TestPeersProgressDespiteStalls races movers between two maps while
// the injector stalls threads inside every critical window of the
// k-word CAS protocol. Stalled threads widen the windows in which
// peers find announced descriptors and must help; the outcome must be
// indistinguishable from an unfaulted run.
func TestPeersProgressDespiteStalls(t *testing.T) {
	const workers = 4
	const tokens = 64
	const opsPer = 300
	plan := fault.NewPlan().
		Stall(fault.KCASAfterPublish, 200*time.Microsecond, fault.Every(17)).
		Stall(fault.KCASBeforeCommit, 200*time.Microsecond, fault.Every(23)).
		Stall(fault.KCASBeforeRecycle, 100*time.Microsecond, fault.Every(31))
	rt := newFaultRT(workers+1, plan)
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < opsPer; i++ {
				k := rng.Uint64() % tokens
				if w%2 == 0 {
					th.Move(a, b, k, k)
				} else {
					th.Move(b, a, k, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if plan.FiredTotal() == 0 {
		t.Fatal("no fault rule ever fired — the test exercised nothing")
	}
	for k := uint64(0); k < tokens; k++ {
		if v := sweepOne(t, setup, a, b, k); v != 1000+k {
			t.Fatalf("key %d: value %d corrupted (want %d)", k, v, 1000+k)
		}
	}
}

// TestPeersCompleteParkedMove parks one mover between its descriptor's
// decision and commit, holding the operation's critical window open
// indefinitely. A peer's plain reads must complete the move while the
// owner is parked — the element observable in exactly one map — and
// releasing the park lets the owner return normally.
func TestPeersCompleteParkedMove(t *testing.T) {
	const key = 5
	plan := fault.NewPlan()
	rt := newFaultRT(3, plan)
	setup := rt.RegisterThread()
	a := hashmap.NewSharded(setup, 1, 4, 0)
	b := hashmap.NewSharded(setup, 1, 4, 0)
	if !a.Insert(setup, key, 777) {
		t.Fatal("seed insert failed")
	}
	victim := rt.RegisterThread()
	plan.Park(fault.KCASBeforeCommit, fault.Nth(1).OnThread(victim.ID()))

	done := make(chan struct{})
	var v uint64
	var ok bool
	go func() {
		defer close(done)
		v, ok = victim.Move(a, b, key, key)
	}()
	for i := 0; plan.Parked() == 0; i++ {
		if i > 5000 {
			t.Fatal("victim never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// The owner is parked mid-protocol. The peer's sweep must find the
	// element exactly once — helping completes the decided move.
	if got := sweepOne(t, setup, a, b, key); got != 777 {
		t.Fatalf("value %d corrupted while owner parked", got)
	}
	if _, in := b.Contains(setup, key); !in {
		t.Fatal("decided move not completed by helping reader")
	}
	plan.Release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim did not return after release")
	}
	if !ok || v != 777 {
		t.Fatalf("victim's move: v=%d ok=%v, want 777/true", v, ok)
	}
	if victim.MoveInFlight() {
		t.Fatal("victim completed yet still reports a move in flight")
	}
}

// TestPeersCompleteKilledMove hard-kills a mover right after it
// publishes its descriptor — the strongest crash model the protocol
// claims to tolerate: the thread is gone, its announcement is not.
// Peers must complete the orphaned move (element in exactly one map,
// value intact) and the dead thread must report MoveInFlight so a
// thread pool never reuses it.
func TestPeersCompleteKilledMove(t *testing.T) {
	const key = 9
	plan := fault.NewPlan()
	rt := newFaultRT(3, plan)
	setup := rt.RegisterThread()
	a := hashmap.NewSharded(setup, 1, 4, 0)
	b := hashmap.NewSharded(setup, 1, 4, 0)
	if !a.Insert(setup, key, 4242) {
		t.Fatal("seed insert failed")
	}
	victim := rt.RegisterThread()
	plan.Kill(fault.KCASAfterPublish, fault.Nth(1).OnThread(victim.ID()))

	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done) // runs even on Goexit
		victim.Move(a, b, key, key)
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim goroutine neither returned nor died")
	}
	if returned {
		t.Fatal("kill rule did not fire — Move returned normally")
	}
	if plan.Kills() != 1 {
		t.Fatalf("kills = %d, want 1", plan.Kills())
	}
	if !victim.MoveInFlight() {
		t.Fatal("killed thread must report its move in flight (pool poisoning guard)")
	}
	// The orphaned descriptor is completed by the sweep's own reads.
	if got := sweepOne(t, setup, a, b, key); got != 4242 {
		t.Fatalf("value %d corrupted by orphaned move", got)
	}
	if _, in := b.Contains(setup, key); !in {
		t.Fatal("orphaned move not completed: element still (only) in source")
	}
}

// TestConservationUnderChaos is the integrated storm: stalls on every
// window plus one hard kill mid-run, racing movers over a shared token
// set. Afterwards every token must exist exactly once across the two
// maps with its value intact — the conservation property the chaos CI
// job asserts over the wire, checked here in-process under -race.
func TestConservationUnderChaos(t *testing.T) {
	const workers = 4
	const tokens = 48
	const opsPer = 250
	plan := fault.NewPlan().
		Stall(fault.KCASAfterPublish, 100*time.Microsecond, fault.Every(19)).
		Kill(fault.KCASAfterPublish, fault.Nth(40)) // whoever hits it 40th dies
	rt := newFaultRT(workers+1, plan)
	setup := rt.RegisterThread()
	a := hashmap.NewSharded(setup, 2, 4, 0)
	b := hashmap.NewSharded(setup, 2, 4, 0)
	for i := uint64(0); i < tokens; i++ {
		if !a.Insert(setup, i, 7000+i) {
			t.Fatalf("seed insert %d failed", i)
		}
	}
	ths := make([]*core.Thread, workers)
	for w := range ths {
		ths[w] = rt.RegisterThread()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done() // survives Goexit: the killed worker still checks in
			th := ths[w]
			rng := xrand.New(uint64(w) + 100)
			for i := 0; i < opsPer; i++ {
				k := rng.Uint64() % tokens
				if rng.Uint64()%2 == 0 {
					th.Move(a, b, k, k)
				} else {
					th.Move(b, a, k, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if plan.Kills() != 1 {
		t.Fatalf("kills = %d, want exactly 1", plan.Kills())
	}
	lost := 0
	for w := 0; w < workers; w++ {
		if ths[w].MoveInFlight() {
			lost++
		}
	}
	if lost != 1 {
		t.Fatalf("poisoned threads = %d, want exactly the killed one", lost)
	}
	for k := uint64(0); k < tokens; k++ {
		if v := sweepOne(t, setup, a, b, k); v != 7000+k {
			t.Fatalf("key %d: value %d corrupted (want %d)", k, v, 7000+k)
		}
	}
}
