package harness

import (
	"runtime"
	"testing"
	"time"
)

func smallOpts(impl Impl, pair Pair, mix Mix) Options {
	return Options{
		Impl: impl, Pair: pair, Mix: mix,
		Contention: NoWork,
		Threads:    2,
		TotalOps:   20000,
		Trials:     2,
		Prefill:    64,
	}
}

func TestRunAllCells(t *testing.T) {
	for _, impl := range []Impl{LockFree, Blocking} {
		for _, pair := range []Pair{QueueQueue, StackStack, QueueStack} {
			for _, mix := range []Mix{MoveOnly, InsertRemoveOnly, Mixed} {
				o := smallOpts(impl, pair, mix)
				r := Run(o)
				if len(r.SamplesNS) != o.Trials {
					t.Fatalf("%s: %d samples", o.Name(), len(r.SamplesNS))
				}
				if r.Summary.Mean <= 0 {
					t.Fatalf("%s: non-positive mean %f", o.Name(), r.Summary.Mean)
				}
				if r.MeanMS() <= 0 {
					t.Fatalf("%s: MeanMS", o.Name())
				}
			}
		}
	}
}

func TestRunWithBackoffAndContention(t *testing.T) {
	for _, c := range []Contention{High, Low} {
		o := smallOpts(LockFree, QueueStack, Mixed)
		o.Contention = c
		o.Backoff = true
		o.TotalOps = 5000
		r := Run(o)
		if r.Summary.Mean <= 0 {
			t.Fatalf("contention %s: mean %f", c, r.Summary.Mean)
		}
	}
}

func TestWorkSubtractionReducesReportedTime(t *testing.T) {
	// With heavy local work, adjusted time must be far below wall time
	// per op count; indirectly check by comparing to a no-work run of
	// the same size: adjusted(work) should not be wildly larger.
	base := smallOpts(LockFree, QueueQueue, InsertRemoveOnly)
	base.TotalOps = 20000
	base.Trials = 3
	noWork := Run(base)
	withWork := base
	withWork.Contention = Low
	ww := Run(withWork)
	if ww.Summary.Mean > noWork.Summary.Mean*50+5e6 {
		t.Fatalf("work subtraction ineffective: no-work %.2fms vs with-work %.2fms",
			noWork.MeanMS(), ww.MeanMS())
	}
}

func TestCalibration(t *testing.T) {
	Calibrate()
	if NsPerIteration() <= 0 {
		t.Fatal("calibration produced non-positive cost")
	}
	// SpinFor should take very roughly the requested time for a large
	// request (loose factor-20 sanity bound; CI machines are noisy).
	const ns = 5e6
	t0 := nowNS()
	SpinFor(ns)
	el := nowNS() - t0
	if el < ns/20 || el > ns*20 {
		t.Fatalf("SpinFor(%v ns) took %v ns", ns, el)
	}
}

func TestOptionNames(t *testing.T) {
	o := smallOpts(Blocking, StackStack, MoveOnly)
	o.Backoff = true
	name := o.Name()
	for _, want := range []string{"stack/stack", "blocking", "move", "+backoff", "t=2"} {
		if !contains(name, want) {
			t.Fatalf("Name %q missing %q", name, want)
		}
	}
	if QueueQueue.String() != "queue/queue" || High.String() != "high" ||
		LockFree.String() != "lockfree" || Mixed.String() != "all" {
		t.Fatal("stringers broken")
	}
}

// TestOversubscribedFlag pins the flag on both sides of the boundary: a
// cell with as many workers as processors is not oversubscribed, one
// more worker is, and Run reports what Oversubscribed says.
func TestOversubscribedFlag(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		threads int
		want    bool
	}{{procs, false}, {procs + 1, true}} {
		if got := Oversubscribed(c.threads); got != c.want {
			t.Errorf("Oversubscribed(%d) at GOMAXPROCS=%d = %v, want %v", c.threads, procs, got, c.want)
		}
		o := smallOpts(LockFree, StackStack, InsertRemoveOnly)
		o.Threads, o.TotalOps, o.Trials = c.threads, 2000, 1
		if r := Run(o); r.Oversubscribed != c.want {
			t.Errorf("Run at %d threads, GOMAXPROCS=%d: Oversubscribed = %v, want %v", c.threads, procs, r.Oversubscribed, c.want)
		}
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TotalOps != 5_000_000 || o.Trials != 1 || o.Threads != 1 || o.Prefill != 512 {
		t.Fatalf("defaults: %+v", o)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func nowNS() float64 {
	return float64(time.Now().UnixNano())
}
