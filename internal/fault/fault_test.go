package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNthFiresExactlyOnce(t *testing.T) {
	pl := NewPlan().Stall(KCASBeforeCommit, 0, Nth(3))
	for i := 0; i < 10; i++ {
		pl.Fire(KCASBeforeCommit, 0)
	}
	if got := pl.Fired(KCASBeforeCommit); got != 1 {
		t.Fatalf("Nth(3) fired %d times, want 1", got)
	}
	// Other points are untouched.
	if pl.FiredTotal() != 1 {
		t.Fatalf("FiredTotal = %d, want 1", pl.FiredTotal())
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	pl := NewPlan().Stall(MapMidGrow, 0, Every(4))
	for i := 0; i < 12; i++ {
		pl.Fire(MapMidGrow, 7)
	}
	if got := pl.Fired(MapMidGrow); got != 3 {
		t.Fatalf("Every(4) over 12 hits fired %d times, want 3", got)
	}
}

func TestSkipDelaysCounting(t *testing.T) {
	pl := NewPlan().Stall(KCASAfterPublish, 0, Nth(2).AfterSkip(5))
	for i := 0; i < 6; i++ {
		pl.Fire(KCASAfterPublish, 0)
	}
	if pl.Fired(KCASAfterPublish) != 0 {
		t.Fatal("fired during skip window")
	}
	pl.Fire(KCASAfterPublish, 0) // post-skip hit 2
	if pl.Fired(KCASAfterPublish) != 1 {
		t.Fatalf("fired %d, want 1 on post-skip hit 2", pl.Fired(KCASAfterPublish))
	}
}

func TestThreadFilter(t *testing.T) {
	pl := NewPlan().Stall(MapMidGrow, 0, Always().OnThread(3))
	pl.Fire(MapMidGrow, 1)
	pl.Fire(MapMidGrow, 2)
	if pl.FiredTotal() != 0 {
		t.Fatal("fired for non-matching thread")
	}
	pl.Fire(MapMidGrow, 3)
	if pl.Fired(MapMidGrow) != 1 {
		t.Fatal("did not fire for matching thread")
	}
}

func TestProbIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []uint64 {
		pl := NewPlan().Stall(KCASBeforeRecycle, 0, Prob(0.3, seed))
		var marks []uint64
		for i := 0; i < 200; i++ {
			before := pl.Fired(KCASBeforeRecycle)
			pl.Fire(KCASBeforeRecycle, 0)
			if pl.Fired(KCASBeforeRecycle) != before {
				marks = append(marks, uint64(i))
			}
		}
		return marks
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("prob 0.3 over 200 hits never fired")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fire %d: hit %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestStallSleeps(t *testing.T) {
	pl := NewPlan().Stall(KCASBeforeCommit, 20*time.Millisecond, Always())
	start := time.Now()
	pl.Fire(KCASBeforeCommit, 0)
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("stall returned after %v, want >= ~20ms", d)
	}
}

func TestParkAndRelease(t *testing.T) {
	pl := NewPlan().Park(KCASAfterPublish, Always())
	done := make(chan struct{})
	go func() {
		pl.Fire(KCASAfterPublish, 0)
		close(done)
	}()
	// Wait until the goroutine is parked.
	deadline := time.After(2 * time.Second)
	for pl.Parked() == 0 {
		select {
		case <-deadline:
			t.Fatal("goroutine never parked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	pl.Release()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Release did not unpark")
	}
	// Post-release parks pass straight through.
	pl.Fire(KCASAfterPublish, 0)
	if pl.Parked() != 0 {
		t.Fatal("parked after Release")
	}
	pl.Release() // idempotent
}

func TestKillTerminatesGoroutine(t *testing.T) {
	pl := NewPlan().Kill(MapMidGrow, Nth(1))
	reached := false
	deferred := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { deferred = true }()
		pl.Fire(MapMidGrow, 0)
		reached = true
	}()
	wg.Wait()
	if reached {
		t.Fatal("goroutine survived kill")
	}
	if !deferred {
		t.Fatal("deferred functions did not run on kill")
	}
	if pl.Kills() != 1 {
		t.Fatalf("Kills = %d, want 1", pl.Kills())
	}
}

func TestDisabledPlanIsInert(t *testing.T) {
	pl := NewPlan()
	pl.Fire(KCASAfterPublish, 0)
	pl.Fire(MapMidGrow, 3)
	if pl.FiredTotal() != 0 || pl.Kills() != 0 {
		t.Fatal("empty plan fired")
	}
}

func TestConcurrentFire(t *testing.T) {
	pl := NewPlan().
		Stall(KCASBeforeCommit, 0, Every(3)).
		Stall(KCASBeforeCommit, 0, Prob(0.1, 9))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				pl.Fire(KCASBeforeCommit, tid)
			}
		}(g)
	}
	wg.Wait()
	// 8000 hits against Every(3): the first matching rule consumes the
	// hit, so the count is exact.
	if got := pl.Fired(KCASBeforeCommit); got < 2000 {
		t.Fatalf("concurrent Every(3) fired %d, want >= 2000", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	pl, err := Parse([]string{
		"kcas-commit:stall=2ms:every=97",
		"kcas-publish:kill:nth=1500,skip=10",
		"map-grow:stall=1ms:prob=0.01,seed=7",
		"map-grow:park:thread=2",
		"kcas-recycle:stall=0s",
	})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(pl.rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(pl.rules))
	}
	r := pl.rules[0]
	if r.point != KCASBeforeCommit || r.action != actStall || r.stall != 2*time.Millisecond || r.trig.Every != 97 {
		t.Fatalf("rule 0 mismatch: %+v", r)
	}
	r = pl.rules[1]
	if r.point != KCASAfterPublish || r.action != actKill || r.trig.Nth != 1500 || r.trig.Skip != 10 {
		t.Fatalf("rule 1 mismatch: %+v", r)
	}
	r = pl.rules[2]
	if r.point != MapMidGrow || r.trig.Prob != 0.01 || r.trig.Seed != 7 {
		t.Fatalf("rule 2 mismatch: %+v", r)
	}
	r = pl.rules[3]
	if r.point != MapMidGrow || r.action != actPark || r.trig.Thread != 2 {
		t.Fatalf("rule 3 mismatch: %+v", r)
	}
	if r = pl.rules[4]; r.trig.Every != 1 {
		t.Fatalf("modless rule should fire always, got %+v", r.trig)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"kcas-commit",
		"nowhere:stall=1ms",
		"kcas-commit:explode",
		"kcas-commit:stall=banana",
		"kcas-commit:stall=-1ms",
		"kcas-commit:stall=1ms:every=0",
		"kcas-commit:stall=1ms:prob=1.5",
		"kcas-commit:stall=1ms:prob=0",
		"kcas-commit:stall=1ms:thread=-2",
		"kcas-commit:stall=1ms:nonsense=3",
		"kcas-commit:stall=1ms:every",
		"a:b:c:d",
	} {
		if _, err := Parse([]string{bad}); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestPointString(t *testing.T) {
	want := map[Point]string{
		KCASAfterPublish:  "kcas-publish",
		KCASBeforeCommit:  "kcas-commit",
		KCASBeforeRecycle: "kcas-recycle",
		MapMidGrow:        "map-grow",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
	if !strings.HasPrefix(Point(200).String(), "Point(") {
		t.Error("out-of-range Point should stringify defensively")
	}
}

func TestResourceError(t *testing.T) {
	e := &ResourceError{Resource: "arena: node store", Capacity: 64, Hint: "ArenaCapacity"}
	if !errors.Is(e, ErrResourceExhausted) {
		t.Fatal("ResourceError does not match ErrResourceExhausted")
	}
	msg := e.Error()
	for _, frag := range []string{"node store", "capacity 64", "ArenaCapacity"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("message %q missing %q", msg, frag)
		}
	}
	if AsResourceError(e) != e {
		t.Fatal("AsResourceError failed on a ResourceError")
	}
	if AsResourceError("some other panic") != nil {
		t.Fatal("AsResourceError matched a non-ResourceError")
	}
	if AsResourceError(nil) != nil {
		t.Fatal("AsResourceError matched nil")
	}
}
