package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/mm"
	"repro/internal/msqueue"
	"repro/internal/obs"
	"repro/internal/tstack"
	"repro/internal/word"
)

// fixture is one runtime whose arena the peer's first carve empties,
// with objects the peer has filled: a queue, two stacks and two maps.
// o configures the runtime's telemetry.
type fixture struct {
	peer, th *core.Thread
	q        *msqueue.Queue
	s, s2    *tstack.Stack
	a, b     *hashmap.Map
	keys     []uint64 // two of a's keys in different buckets of b
}

func newFixture(t *testing.T, o obs.Config) *fixture {
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: arena.ReservedIndexes + mm.LocalListCap, Obs: o})
	f := &fixture{peer: rt.RegisterThread()}
	p := f.peer
	f.q = msqueue.New(p)
	f.s, f.s2 = tstack.New(p), tstack.New(p)
	f.a, f.b = hashmap.NewSharded(p, 1, 4, 0), hashmap.NewSharded(p, 1, 4, 0)
	for i := uint64(1); i <= 3; i++ {
		f.q.Enqueue(p, i)
		f.s.Push(p, 10+i)
		f.s2.Push(p, 20+i)
	}
	for k := uint64(1); k <= 8; k++ {
		f.a.Insert(p, k, 100+k)
	}
	for k := uint64(2); k <= 8 && len(f.keys) == 0; k++ {
		if !f.b.SameChain(1, k) {
			f.keys = []uint64{1, k}
		}
	}
	if len(f.keys) == 0 {
		t.Fatal("no key among 2..8 outside key 1's bucket of b")
	}
	f.th = rt.RegisterThread()
	return f
}

// state renders every object's contents, read by the peer.
func (f *fixture) state() string {
	p := f.peer
	var q []uint64
	head, _ := f.q.Anchors()
	for cur := p.Read(head); ; {
		next := p.Read(&p.Node(cur).Next)
		if next == word.Nil {
			break
		}
		q = append(q, p.Node(next).Val)
		cur = next
	}
	stack := func(s *tstack.Stack) (vals []uint64) {
		for cur := p.Read(s.TopWord()); word.NodeIndex(cur) != 0; cur = p.Node(cur).Next.Load() {
			vals = append(vals, p.Node(cur).Val)
		}
		return vals
	}
	hmap := func(m *hashmap.Map) (kv [][2]uint64) {
		for _, k := range m.Keys(p) {
			v, _ := m.Contains(p, k)
			kv = append(kv, [2]uint64{k, v})
		}
		slices.SortFunc(kv, func(x, y [2]uint64) int { return int(x[0]) - int(y[0]) })
		return kv
	}
	return fmt.Sprint(q, stack(f.s), stack(f.s2), hmap(f.a), hmap(f.b))
}

// TestExhaustionAtEveryInitPhaseAllocation runs every operation that
// allocates nodes on a thread the arena cannot serve: each one fails
// through its ordinary failure path — the composed ones by the abort of
// lines M15–M18 — and changes nothing, the thread's Exhausted reports it
// once, no move state or protection is left behind, and the same call
// succeeds once the peer frees nodes.
func TestExhaustionAtEveryInitPhaseAllocation(t *testing.T) {
	cases := []struct {
		name string
		give int  // nodes the starved thread holds: fewer than the call needs
		list bool // the call searches a map's lists, which leave their slots published
		op   func(f *fixture) bool
	}{
		{"Move queue to stack", 0, false, func(f *fixture) bool {
			_, ok := f.th.Move(f.q, f.s, 0, 0)
			return ok
		}},
		{"Move map to map", 0, true, func(f *fixture) bool {
			_, ok := f.th.Move(f.a, f.b, 2, 2)
			return ok
		}},
		{"MoveN queue to map and stack", 0, true, func(f *fixture) bool {
			_, ok := f.th.MoveN(f.q, []core.Inserter{f.b, f.s}, 0, []uint64{9, 0})
			return ok
		}},
		{"MoveN second target short of a node", 1, false, func(f *fixture) bool {
			_, ok := f.th.MoveN(f.q, []core.Inserter{f.s, f.s2}, 0, []uint64{0, 0})
			return ok
		}},
		{"TransferKeys", 0, true, func(f *fixture) bool {
			_, ok := f.th.TransferN(f.a, f.b, f.keys, f.keys)
			return ok
		}},
		{"SwapHeads", 0, false, func(f *fixture) bool {
			return tstack.SwapHeads(f.th, f.s, f.s2)
		}},
		{"SwapHeads short of a node", 1, false, func(f *fixture) bool {
			return tstack.SwapHeads(f.th, f.s, f.s2)
		}},
		{"DrainN", 0, false, func(f *fixture) bool {
			return len(f.th.DrainN(f.q, f.s, 0, 0, 3, nil)) == 3
		}},
		{"MoveBatch flush", 0, false, func(f *fixture) bool {
			b := batch.New(f.th, 2)
			b.Add(f.q, f.s, 0, 0)
			b.Add(f.q, f.s2, 0, 0)
			res := b.Flush()
			return res[0].OK && res[1].OK
		}},
		{"Enqueue", 0, false, func(f *fixture) bool { return f.q.Enqueue(f.th, 99) }},
		{"Push", 0, false, func(f *fixture) bool { return f.s.Push(f.th, 99) }},
		{"map Insert", 0, true, func(f *fixture) bool { return f.a.Insert(f.th, 99, 99) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, obs.Config{})
			for i := 0; i < tc.give; i++ {
				f.th.FreeNodeDirect(f.peer.AllocNode())
			}
			before := f.state()
			if tc.op(f) {
				t.Fatal("succeeded on a thread the arena cannot serve")
			}
			if got := f.state(); got != before {
				t.Fatalf("failed call changed the objects:\n before %s\n after  %s", before, got)
			}
			if !f.th.Exhausted() {
				t.Fatal("Exhausted does not report the failed allocation")
			}
			if f.th.Exhausted() {
				t.Fatal("Exhausted reported the failure twice")
			}
			if f.th.MoveInFlight() {
				t.Fatal("a move is still in flight")
			}
			ins, rem, other := f.th.PublishedSlots()
			if other != 0 {
				t.Fatalf("%d mirror, hold or descriptor slots left published", other)
			}
			if maxPins := map[bool]int{false: 0, true: 2}[tc.list]; ins > maxPins || rem > maxPins {
				t.Fatalf("%d insert-side and %d remove-side slots left published, want at most %d each", ins, rem, maxPins)
			}
			held := make([]uint64, tc.give) // the nodes the thread held are still its own
			for i := range held {
				if held[i] = f.th.AllocNode(); held[i] == word.Nil {
					t.Fatalf("the failed call kept %d of the thread's %d nodes", tc.give-i, tc.give)
				}
			}
			for _, r := range held {
				f.th.FreeNodeDirect(r)
			}

			f.peer.FlushMemory() // the peer's unused nodes go to the global stack
			if !tc.op(f) {
				t.Fatal("failed once the peer freed nodes")
			}
			if f.th.Exhausted() {
				t.Fatal("Exhausted set by a call that found nodes")
			}
		})
	}
}
