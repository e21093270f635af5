package core_test

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harrislist"
	"repro/internal/msqueue"
	"repro/internal/obs"
	"repro/internal/tstack"
	"repro/internal/word"
)

// The containers run the plain case of read and scas at their call
// sites (msqueue, tstack, harrislist). These tests pin both branches of
// those guards: a word that holds a descriptor must be helped, not used
// as a value, and a lost plain CAS must still be counted.

// guardFixture is one runtime with a queue, a stack and a list, a victim
// thread whose composition parks right after it publishes its
// descriptor, and a peer thread that runs one plain operation meanwhile.
type guardFixture struct {
	plan         *fault.Plan
	victim, peer *core.Thread
	q            *msqueue.Queue
	s            *tstack.Stack
	l            *harrislist.List
}

func newGuardFixture(t *testing.T, queue, stack, list []uint64) *guardFixture {
	t.Helper()
	plan := fault.NewPlan()
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: 1 << 12, Fault: plan})
	f := &guardFixture{plan: plan, victim: rt.RegisterThread(), peer: rt.RegisterThread()}
	f.q, f.s, f.l = msqueue.New(f.victim), tstack.New(f.victim), harrislist.New(f.victim)
	for _, v := range queue {
		f.q.Enqueue(f.victim, v)
	}
	for _, v := range stack {
		f.s.Push(f.victim, v)
	}
	for _, k := range list {
		f.l.Insert(f.victim, k, 10*k)
	}
	return f
}

// listNext returns the Next word of the list node with key k.
func (f *guardFixture) listNext(k uint64) *word.Word {
	var w *word.Word
	harrislist.Walk(f.peer, f.l.HeadWord(), func(n *arena.Node) {
		if n.Key == k {
			w = &n.Next
		}
	})
	return w
}

// tailNext returns the Next word of the queue's last node.
func (f *guardFixture) tailNext() *word.Word {
	_, tail := f.q.Anchors()
	return &f.peer.Node(tail.Load()).Next
}

// drainQueue and drainStack empty a container into a printable slice.
func (f *guardFixture) drainQueue() string {
	var out []uint64
	for v, ok := f.q.Dequeue(f.peer); ok; v, ok = f.q.Dequeue(f.peer) {
		out = append(out, v)
	}
	return fmt.Sprint(out)
}

func (f *guardFixture) drainStack() string {
	var out []uint64
	for v, ok := f.s.Pop(f.peer); ok; v, ok = f.s.Pop(f.peer) {
		out = append(out, v)
	}
	return fmt.Sprint(out)
}

// TestGuardSlowBranches parks a composition after it publishes, so that
// its descriptor sits in the word a plain operation of another thread
// reads: the queue's head, a queue node's next, the stack's top, a list
// node's next (on the remove side and on the insert side). The plain
// Enqueue, Dequeue, Push, Pop, Insert, Remove and Contains must each help
// it and complete with the result of the operation ordered after the
// move; an operation that took the descriptor for a value would crash,
// hang or answer from the state before the move.
func TestGuardSlowBranches(t *testing.T) {
	// The compositions. Each returns the words its descriptor must sit in
	// while parked, and runs the composition, wanting the moved value.
	type composition func(f *guardFixture) (words []*word.Word, run func() (uint64, bool))
	fromQueue := func(f *guardFixture) ([]*word.Word, func() (uint64, bool)) {
		head, _ := f.q.Anchors()
		return []*word.Word{head}, func() (uint64, bool) { return f.victim.Move(f.q, f.s, 0, 0) }
	}
	fromStack := func(f *guardFixture) ([]*word.Word, func() (uint64, bool)) {
		return []*word.Word{f.s.TopWord()}, func() (uint64, bool) { return f.victim.Move(f.s, f.q, 0, 0) }
	}
	fromList := func(f *guardFixture) ([]*word.Word, func() (uint64, bool)) { // removes key 5
		return []*word.Word{f.listNext(5)}, func() (uint64, bool) { return f.victim.Move(f.l, f.q, 5, 0) }
	}
	// The stack's top into the queue and into the list under key 5 (after
	// key 3): a three-word chain, whose k-word CAS holds every word it
	// acquired when it parks.
	intoQueueAndList := func(f *guardFixture) ([]*word.Word, func() (uint64, bool)) {
		return []*word.Word{f.s.TopWord(), f.tailNext(), f.listNext(3)}, func() (uint64, bool) {
			return f.victim.MoveN(f.s, []core.Inserter{f.q, f.l}, 0, []uint64{0, 5})
		}
	}
	pair := func(v uint64, ok bool) string { return fmt.Sprint(v, ok) }

	for _, c := range []struct {
		name               string
		queue, stack, list []uint64
		compose            composition
		moved              uint64
		op                 func(f *guardFixture) string // the peer's plain operation
		want               string
		after              func(f *guardFixture) string // state once the victim returned
		wantAfter          string
	}{
		{"Dequeue/queue head", []uint64{1, 2}, nil, nil, fromQueue, 1,
			func(f *guardFixture) string { return pair(f.q.Dequeue(f.peer)) }, "2 true",
			(*guardFixture).drainStack, "[1]"},
		{"Dequeue/queue node next", nil, []uint64{6, 7}, []uint64{3}, intoQueueAndList, 7,
			func(f *guardFixture) string { return pair(f.q.Dequeue(f.peer)) }, "7 true",
			(*guardFixture).drainQueue, "[]"},
		{"Enqueue/queue node next", []uint64{1}, []uint64{6, 7}, []uint64{3}, intoQueueAndList, 7,
			func(f *guardFixture) string { return fmt.Sprint(f.q.Enqueue(f.peer, 9)) }, "true",
			(*guardFixture).drainQueue, "[1 7 9]"},
		{"Pop/stack top, removed", []uint64{1}, []uint64{6, 7}, nil, fromStack, 7,
			func(f *guardFixture) string { return pair(f.s.Pop(f.peer)) }, "6 true",
			(*guardFixture).drainQueue, "[1 7]"},
		{"Push/stack top, removed", nil, []uint64{6, 7}, nil, fromStack, 7,
			func(f *guardFixture) string { return fmt.Sprint(f.s.Push(f.peer, 4)) }, "true",
			(*guardFixture).drainStack, "[4 6]"},
		{"Pop/stack top, k-word", nil, []uint64{6, 7}, []uint64{3}, intoQueueAndList, 7,
			func(f *guardFixture) string { return pair(f.s.Pop(f.peer)) }, "6 true",
			(*guardFixture).drainStack, "[]"},
		{"Contains/list node next, removed", nil, nil, []uint64{3, 5, 8}, fromList, 50,
			func(f *guardFixture) string { return pair(f.l.Contains(f.peer, 5)) }, "0 false",
			func(f *guardFixture) string { return fmt.Sprint(f.l.Keys(f.peer)) }, "[3 8]"},
		{"Remove/list node next, removed", nil, nil, []uint64{3, 5, 8}, fromList, 50,
			func(f *guardFixture) string { return pair(f.l.Remove(f.peer, 8)) }, "80 true",
			func(f *guardFixture) string { return fmt.Sprint(f.l.Keys(f.peer)) }, "[3]"},
		{"Insert/list node next, removed", nil, nil, []uint64{3, 5, 8}, fromList, 50,
			func(f *guardFixture) string { return fmt.Sprint(f.l.Insert(f.peer, 6, 60)) }, "true",
			func(f *guardFixture) string { return fmt.Sprint(f.l.Keys(f.peer)) }, "[3 6 8]"},
		{"Contains/list node next, inserted", nil, []uint64{6, 7}, []uint64{3, 8}, intoQueueAndList, 7,
			func(f *guardFixture) string { return pair(f.l.Contains(f.peer, 5)) }, "7 true",
			func(f *guardFixture) string { return fmt.Sprint(f.l.Keys(f.peer)) }, "[3 5 8]"},
		{"Insert/list node next, inserted", nil, []uint64{6, 7}, []uint64{3, 8}, intoQueueAndList, 7,
			func(f *guardFixture) string { return fmt.Sprint(f.l.Insert(f.peer, 5, 1)) }, "false",
			func(f *guardFixture) string { return pair(f.l.Contains(f.peer, 5)) }, "7 true"},
		{"Remove/list node next, inserted", nil, []uint64{6, 7}, []uint64{3, 8}, intoQueueAndList, 7,
			func(f *guardFixture) string { return pair(f.l.Remove(f.peer, 8)) }, "80 true",
			func(f *guardFixture) string { return fmt.Sprint(f.l.Keys(f.peer)) }, "[3 5]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newGuardFixture(t, c.queue, c.stack, c.list)
			words, run := c.compose(f)
			f.plan.Park(fault.KCASAfterPublish, fault.Nth(1).OnThread(f.victim.ID()))
			defer f.plan.Release()
			moved := make(chan string, 1)
			go func() { moved <- pair(run()) }()
			for i := 0; f.plan.Parked() == 0; i++ {
				if i > 5000 {
					t.Fatal("the composition never parked")
				}
				time.Sleep(time.Millisecond)
			}
			for i, w := range words {
				if !word.IsDesc(w.Load()) {
					t.Fatalf("word %d holds %#x while the composition is parked, want its descriptor", i, w.Load())
				}
			}
			done := make(chan string, 1)
			go func() { done <- c.op(f) }()
			select {
			case got := <-done:
				if got != c.want {
					t.Errorf("plain operation beside the parked composition = %s, want %s", got, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("plain operation did not complete beside the parked composition")
			}
			f.plan.Release()
			select {
			case got := <-moved:
				if want := pair(c.moved, true); got != want {
					t.Fatalf("composition = %s, want %s", got, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("composition did not return after release")
			}
			if got := c.after(f); got != c.wantAfter {
				t.Errorf("afterwards %s, want %s", got, c.wantAfter)
			}
		})
	}
}

// TestLostPlainCASCounts extends TestLostSCASCounts to the call-site
// plain path: two threads race one removal of the only element of a
// queue, a stack and a list (and one insert of the same key into an
// empty list), over and over. Only one removal (insert) can succeed, so
// the other thread either sees the outcome or loses its CAS once and
// then fails; each lost CAS must add exactly 1 to that thread's
// cas_retries_total stripe. A failing operation keeps its backoff window,
// which doubles on each lost CAS, so the window tells how many it lost.
func TestLostPlainCASCounts(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a plain CAS is lost only to a thread running at the same time: needs GOMAXPROCS >= 2")
	}
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: 1 << 14, Obs: obs.Config{Metrics: true}})
	reg := rt.Obs().Metrics()
	ths := [2]*core.Thread{rt.RegisterThread(), rt.RegisterThread()}
	for _, th := range ths {
		th.EnableBackoff(1, 1<<20)
	}
	q, s, l := msqueue.New(ths[0]), tstack.New(ths[0]), harrislist.New(ths[0])
	for _, c := range []struct {
		name  string
		setup func()
		op    func(th *core.Thread)
	}{
		{"queue", func() { q.Enqueue(ths[0], 1) }, func(th *core.Thread) { q.Dequeue(th) }},
		{"stack", func() { s.Push(ths[0], 1) }, func(th *core.Thread) { s.Pop(th) }},
		{"list remove", func() { l.Insert(ths[0], 1, 1) }, func(th *core.Thread) { l.Remove(th, 1) }},
		{"list insert", func() { l.Remove(ths[0], 1) }, func(th *core.Thread) { l.Insert(th, 1, 1) }},
	} {
		// This goroutine runs thread 0's side of each race, a second one
		// thread 1's; a round starts when round is stored and ends when
		// done catches up with it.
		const trials = 20000
		var round, done atomic.Int64
		go func() {
			for r := int64(1); r <= trials; r++ {
				for round.Load() < r {
				}
				c.op(ths[1])
				done.Store(r)
			}
		}()
		lost, miscounted := 0, false
		for r := int64(1); r <= trials; r++ {
			c.setup()
			var before [2]uint64
			for i, th := range ths {
				th.BackoffReset()
				before[i] = reg.ThreadValue(th.ID(), obs.CASRetry)
			}
			round.Store(r)
			// Thread 1 starts about when it sees the store; thread 0 starts
			// up to a few hundred loads later, a different offset each
			// round, so that the rounds sweep the other's CAS window.
			for i := r % 256; i > 0; i-- {
				round.Load()
			}
			c.op(ths[0])
			for done.Load() < r {
			}
			for i, th := range ths {
				counted := reg.ThreadValue(th.ID(), obs.CASRetry) - before[i]
				losses := uint64(0)
				if w := th.Backoff().Current(); w != 0 {
					losses = uint64(bits.TrailingZeros32(w))
				}
				if counted != losses && !miscounted { // report once; the other goroutine runs every round
					t.Errorf("%s, round %d: thread %d lost %d plain CASes, its stripe counted %d", c.name, r, i, losses, counted)
					miscounted = true
				}
				lost += int(losses)
			}
		}
		if lost == 0 {
			t.Errorf("%s: no lost CAS in %d races", c.name, trials)
		}
		t.Logf("%s: %d lost CASes counted", c.name, lost)
		// Leave the list empty for the insert races that follow the removals.
		l.Remove(ths[0], 1)
	}
}
