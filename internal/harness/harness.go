// Package harness reproduces the paper's experimental setup (§6):
//
//	"All experiments were based on either two queues, two stacks, or one
//	 queue and one stack. Each thread randomly performed operations from
//	 a set of either just move operations, or just insert/remove
//	 operations, or both move and insert/remove operations. A total of
//	 five million operations were distributed evenly to between one and
//	 sixteen threads and each trial was run fifty times. [...] Two load
//	 distributions were tested, one with high contention and one with low
//	 contention, where each thread did some local work for a variable
//	 amount of time after they had performed an operation [...] picked
//	 from a normal distribution and the work takes around 0.1µs per
//	 operation on average for the high contention distribution and 0.5µs
//	 per operation on the low contention distribution. The total time
//	 [...] excluding the time it took to perform the local work [...]"
//
// Each trial builds a fresh runtime and pair of objects, prefills them,
// releases all threads from a barrier, and reports wall time minus the
// per-thread average of intended local work.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/msqueue"
	"repro/internal/stats"
	"repro/internal/tstack"
	"repro/internal/xrand"
)

// Impl selects the synchronization family under test.
type Impl int

const (
	// LockFree is the paper's move-ready lock-free implementation.
	LockFree Impl = iota
	// Blocking is the test-test-and-set baseline.
	Blocking
)

func (i Impl) String() string {
	if i == Blocking {
		return "blocking"
	}
	return "lockfree"
}

// Pair selects the object pairing of the three experiments.
type Pair int

const (
	// QueueQueue: two queues (Figure 3).
	QueueQueue Pair = iota
	// StackStack: two stacks (Figure 4).
	StackStack
	// QueueStack: one queue and one stack (Figure 2).
	QueueStack
)

func (p Pair) String() string {
	switch p {
	case QueueQueue:
		return "queue/queue"
	case StackStack:
		return "stack/stack"
	}
	return "queue/stack"
}

// Mix selects the operation mix.
type Mix int

const (
	// MoveOnly: just move operations.
	MoveOnly Mix = iota
	// InsertRemoveOnly: just insert/remove operations.
	InsertRemoveOnly
	// Mixed: both move and insert/remove operations.
	Mixed
)

func (m Mix) String() string {
	switch m {
	case MoveOnly:
		return "move"
	case InsertRemoveOnly:
		return "insert/remove"
	}
	return "all"
}

// Contention selects the local-work distribution.
type Contention int

const (
	// NoWork: operations back to back (maximum contention).
	NoWork Contention = iota
	// High: ~0.1µs mean local work per operation.
	High
	// Low: ~0.5µs mean local work per operation.
	Low
)

func (c Contention) String() string {
	switch c {
	case High:
		return "high"
	case Low:
		return "low"
	}
	return "none"
}

// workMean returns the mean local-work duration in nanoseconds.
func (c Contention) workMean() float64 {
	switch c {
	case High:
		return 100
	case Low:
		return 500
	}
	return 0
}

// workStddevFraction: the paper specifies a normal distribution but not
// its spread; we use mean/5 (documented assumption).
const workStddevFraction = 5

// Options configures one experiment cell (one point of one figure).
type Options struct {
	Impl       Impl
	Pair       Pair
	Mix        Mix
	Contention Contention
	Threads    int
	TotalOps   int // distributed evenly over threads
	Trials     int
	Backoff    bool
	// BackoffStart/BackoffMax tune the doubling backoff (spin counts);
	// zero selects package backoff defaults, which were chosen the way
	// the paper tunes its baseline.
	BackoffStart, BackoffMax uint32
	// Prefill inserts this many elements into each object before the
	// clock starts (the paper does not state its prefill; default 512).
	Prefill int
	Seed    uint64
	// Pin locks worker goroutines to OS threads.
	Pin bool
	// ArenaCapacity overrides the runtime sizing (0 = automatic).
	ArenaCapacity int
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.TotalOps <= 0 {
		o.TotalOps = 5_000_000
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Prefill == 0 {
		o.Prefill = 512
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

// Name renders the cell identity for table rows.
func (o Options) Name() string {
	b := ""
	if o.Backoff {
		b += "+backoff"
	}
	return fmt.Sprintf("%s/%s/%s%s/work=%s/t=%d", o.Pair, o.Impl, o.Mix, b, o.Contention, o.Threads)
}

// Result is the outcome of running all trials of one cell.
type Result struct {
	Options Options
	// SamplesNS holds per-trial adjusted durations (wall time minus
	// average local work), in nanoseconds.
	SamplesNS []float64
	Summary   stats.Summary
	// Ops is the per-trial operation count actually issued.
	Ops int
	// Oversubscribed marks a cell that ran more workers than processors
	// (see Oversubscribed): its adjusted time over-credits local work and
	// no verdict is read from it.
	Oversubscribed bool
}

// Oversubscribed reports whether a cell of this many workers exceeds the
// processors available to the program. The adjusted time subtracts
// totalWork/threads from the wall clock, which assumes every worker owns
// a processor; SpinFor spins on the wall clock, so a descheduled
// worker's local work elapses for free and is still subtracted. Such a
// cell reads faster than it is (on 2 CPUs the 16-thread stack cell reads
// 4–6× the 2-thread one for the same operations).
func Oversubscribed(threads int) bool { return threads > runtime.GOMAXPROCS(0) }

// MeanMS returns the mean adjusted duration in milliseconds.
func (r Result) MeanMS() float64 { return r.Summary.Mean / 1e6 }

// objects abstracts one pairing so the worker loop is shared between
// implementations.
type objects struct {
	insertA func(t *core.Thread, v uint64) bool
	removeA func(t *core.Thread) (uint64, bool)
	insertB func(t *core.Thread, v uint64) bool
	removeB func(t *core.Thread) (uint64, bool)
	moveAB  func(t *core.Thread) bool
	moveBA  func(t *core.Thread) bool
}

// build creates the object pair for one trial.
func build(o Options, setup *core.Thread) objects {
	switch o.Impl {
	case LockFree:
		var a, b core.MoveReady
		switch o.Pair {
		case QueueQueue:
			a, b = msqueue.New(setup), msqueue.New(setup)
		case StackStack:
			a, b = tstack.New(setup), tstack.New(setup)
		default:
			a, b = msqueue.New(setup), tstack.New(setup)
		}
		return objects{
			insertA: func(t *core.Thread, v uint64) bool { return a.Insert(t, 0, v) },
			removeA: func(t *core.Thread) (uint64, bool) { return a.Remove(t, 0) },
			insertB: func(t *core.Thread, v uint64) bool { return b.Insert(t, 0, v) },
			removeB: func(t *core.Thread) (uint64, bool) { return b.Remove(t, 0) },
			moveAB:  func(t *core.Thread) bool { _, ok := t.Move(a, b, 0, 0); return ok },
			moveBA:  func(t *core.Thread) bool { _, ok := t.Move(b, a, 0, 0); return ok },
		}
	default:
		type blk interface {
			blocking.Source
			blocking.Target
		}
		var a, b blk
		mk := func(queue bool) blk {
			if queue {
				return blocking.NewQueue(setup)
			}
			return blocking.NewStack(setup)
		}
		switch o.Pair {
		case QueueQueue:
			a, b = mk(true), mk(true)
		case StackStack:
			a, b = mk(false), mk(false)
		default:
			a, b = mk(true), mk(false)
		}
		return objects{
			insertA: func(t *core.Thread, v uint64) bool { return insertBlk(t, a, v) },
			removeA: func(t *core.Thread) (uint64, bool) { return removeBlk(t, a) },
			insertB: func(t *core.Thread, v uint64) bool { return insertBlk(t, b, v) },
			removeB: func(t *core.Thread) (uint64, bool) { return removeBlk(t, b) },
			moveAB:  func(t *core.Thread) bool { _, ok := blocking.Move(t, a, b, 0, 0); return ok },
			moveBA:  func(t *core.Thread) bool { _, ok := blocking.Move(t, b, a, 0, 0); return ok },
		}
	}
}

func insertBlk(t *core.Thread, o blocking.Target, v uint64) bool {
	switch c := o.(type) {
	case *blocking.Queue:
		return c.Enqueue(t, v)
	case *blocking.Stack:
		return c.Push(t, v)
	}
	return false
}

func removeBlk(t *core.Thread, o blocking.Source) (uint64, bool) {
	switch c := o.(type) {
	case *blocking.Queue:
		return c.Dequeue(t)
	case *blocking.Stack:
		return c.Pop(t)
	}
	return 0, false
}

// Run executes every trial of one cell and returns the aggregated
// result.
func Run(o Options) Result {
	o = o.withDefaults()
	Calibrate()
	res := Result{Options: o, Ops: o.TotalOps, Oversubscribed: Oversubscribed(o.Threads)}
	for trial := 0; trial < o.Trials; trial++ {
		res.SamplesNS = append(res.SamplesNS, runTrial(o, uint64(trial)))
	}
	res.Summary = stats.Summarize(res.SamplesNS)
	return res
}

// runTrial performs one timed run and returns adjusted nanoseconds.
func runTrial(o Options, trial uint64) float64 {
	arenaCap := o.ArenaCapacity
	if arenaCap == 0 {
		arenaCap = o.Prefill*4 + o.TotalOps/2 + (1 << 16)
	}
	rt := core.NewRuntime(core.Config{
		MaxThreads:    o.Threads + 1,
		ArenaCapacity: arenaCap,
	})
	setup := rt.RegisterThread()
	objs := build(o, setup)
	seedRng := xrand.New(o.Seed + trial*1000003)
	for i := 0; i < o.Prefill; i++ {
		objs.insertA(setup, seedRng.Uint64())
		objs.insertB(setup, seedRng.Uint64())
	}

	perThread := o.TotalOps / o.Threads
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(o.Threads)
	elapsed := make([]time.Duration, o.Threads)
	workNS := make([]float64, o.Threads)

	for w := 0; w < o.Threads; w++ {
		th := rt.RegisterThread()
		go func(w int, th *core.Thread) {
			defer done.Done()
			if o.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			if o.Backoff {
				th.EnableBackoff(o.BackoffStart, o.BackoffMax)
			}
			rng := xrand.New(o.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15 ^ trial)
			mean := o.Contention.workMean()
			sd := mean / workStddevFraction
			var work float64
			start.Wait()
			t0 := time.Now()
			for i := 0; i < perThread; i++ {
				doOp(objs, th, rng, o.Mix)
				if mean > 0 {
					w := rng.NormDuration(mean, sd)
					SpinFor(w)
					work += w
				}
			}
			elapsed[w] = time.Since(t0)
			workNS[w] = work
		}(w, th)
	}
	start.Done()
	done.Wait()

	var wall time.Duration
	var totalWork float64
	for w := 0; w < o.Threads; w++ {
		if elapsed[w] > wall {
			wall = elapsed[w]
		}
		totalWork += workNS[w]
	}
	adj := float64(wall.Nanoseconds()) - totalWork/float64(o.Threads)
	if adj < 0 {
		adj = 0
	}
	return adj
}

// doOp issues one random operation per the mix.
func doOp(objs objects, th *core.Thread, rng *xrand.State, mix Mix) {
	switch mix {
	case MoveOnly:
		if rng.Uint64()&1 == 0 {
			objs.moveAB(th)
		} else {
			objs.moveBA(th)
		}
	case InsertRemoveOnly:
		switch rng.Uint64() & 3 {
		case 0:
			objs.insertA(th, rng.Uint64())
		case 1:
			objs.removeA(th)
		case 2:
			objs.insertB(th, rng.Uint64())
		default:
			objs.removeB(th)
		}
	default: // Mixed: both sets, uniformly over six operations
		switch rng.Uint64() % 6 {
		case 0:
			objs.insertA(th, rng.Uint64())
		case 1:
			objs.removeA(th)
		case 2:
			objs.insertB(th, rng.Uint64())
		case 3:
			objs.removeB(th)
		case 4:
			objs.moveAB(th)
		default:
			objs.moveBA(th)
		}
	}
}
