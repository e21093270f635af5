package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/word"
)

// insertOnly is an insert-only view of a move-ready object: it carries
// the object's identity but has no Remove, like a target wrapper.
type insertOnly struct{ obj core.MoveReady }

func (v insertOnly) Insert(t *core.Thread, key, val uint64) bool { return v.obj.Insert(t, key, val) }
func (v insertOnly) ObjectID() uint64                            { return v.obj.ObjectID() }

// rejecting refuses every insert in its init phase, like a full
// container: the chain never reaches the insert's scas.
type rejecting struct{ id uint64 }

func (r *rejecting) Insert(*core.Thread, uint64, uint64) bool { return false }
func (r *rejecting) ObjectID() uint64                         { return r.id }

func panicOf(op func()) (msg any) {
	defer func() { msg = recover() }()
	op()
	return nil
}

// TestCompositionRejectsInsertOnlyViewOfSource: every composition
// compares ObjectIDs whenever both sides expose one, so an insert-only
// view of the source (or of another target) is the same object. Each
// front-end panics with its distinct-objects message before it takes a
// descriptor: the objects are unchanged and the thread is not left
// inside a move.
func TestCompositionRejectsInsertOnlyViewOfSource(t *testing.T) {
	cases := []struct {
		name, msg string
		op        func(f *fixture)
	}{
		{"Move queue to its view", "core: Move requires two distinct objects", func(f *fixture) {
			f.th.Move(f.q, insertOnly{f.q}, 0, 0)
		}},
		{"Move stack to its view", "core: Move requires two distinct objects", func(f *fixture) {
			f.th.Move(f.s, insertOnly{f.s}, 0, 0)
		}},
		{"MoveN queue to its view", "core: MoveN requires targets distinct from the source", func(f *fixture) {
			f.th.MoveN(f.q, []core.Inserter{insertOnly{f.q}}, 0, []uint64{0})
		}},
		{"MoveN to a target and its view", "core: MoveN requires pairwise distinct targets", func(f *fixture) {
			f.th.MoveN(f.q, []core.Inserter{f.s, insertOnly{f.s}}, 0, []uint64{0, 0})
		}},
		{"TransferN stack to its view", "core: TransferN requires two distinct objects", func(f *fixture) {
			f.th.TransferN(f.s, insertOnly{f.s}, []uint64{0}, []uint64{1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, obs.Config{})
			f.peer.FlushMemory() // the thread could allocate: only the check stops the call
			before := f.state()
			if got := panicOf(func() { tc.op(f) }); got != tc.msg {
				t.Fatalf("panicked with %v, want %q", got, tc.msg)
			}
			if got := f.state(); got != before {
				t.Fatalf("rejected call changed the objects:\n before %s\n after  %s", before, got)
			}
			if f.th.MoveInFlight() {
				t.Fatal("a move is still in flight")
			}
		})
	}
}

// publishKinds drains the trace and returns the descriptor kind of
// every publish th recorded.
func publishKinds(th *core.Thread) []uint64 {
	var kinds []uint64
	for _, ev := range th.Runtime().Obs().Tracer().Drain() {
		if ev.Kind == obs.EvPublish && ev.TID == int32(th.ID()) {
			kinds = append(kinds, word.DescKind(ev.Ref))
		}
	}
	return kinds
}

// TestChainShapePicksProtocol: a two-step chain is decided by the pair
// DCAS and a wider one by the k-word CAS, read off the kind of the
// descriptor each publish announces. Move, a one-target MoveN and a
// one-pair TransferN are the same two-step chain, so on the same inputs
// — a move that succeeds, an empty source, a target that refuses in its
// init phase, an arena with no node for the target's insert — they give
// the same result and leave the same contents.
func TestChainShapePicksProtocol(t *testing.T) {
	inputs := []struct {
		name       string
		prep       func(f *fixture) (core.Remover, core.Inserter, uint64)
		ok, starve bool
	}{
		{"queue to stack", func(f *fixture) (core.Remover, core.Inserter, uint64) {
			f.peer.FlushMemory()
			return f.q, f.s, 0
		}, true, false},
		{"map to map", func(f *fixture) (core.Remover, core.Inserter, uint64) {
			f.peer.FlushMemory()
			return f.a, f.b, 2
		}, true, false},
		{"empty source", func(f *fixture) (core.Remover, core.Inserter, uint64) {
			for _, ok := f.q.Dequeue(f.peer); ok; _, ok = f.q.Dequeue(f.peer) {
			}
			f.peer.FlushMemory()
			return f.q, f.s, 0
		}, false, false},
		{"rejecting target", func(f *fixture) (core.Remover, core.Inserter, uint64) {
			return f.q, &rejecting{id: f.th.Runtime().NextObjectID()}, 0
		}, false, false},
		{"starved target", func(f *fixture) (core.Remover, core.Inserter, uint64) {
			return f.q, f.s, 0
		}, false, true},
	}
	fronts := []struct {
		name string
		run  func(th *core.Thread, src core.Remover, dst core.Inserter, key uint64) (uint64, bool)
	}{
		{"Move", func(th *core.Thread, src core.Remover, dst core.Inserter, key uint64) (uint64, bool) {
			return th.Move(src, dst, key, key)
		}},
		{"MoveN one target", func(th *core.Thread, src core.Remover, dst core.Inserter, key uint64) (uint64, bool) {
			return th.MoveN(src, []core.Inserter{dst}, key, []uint64{key})
		}},
		{"TransferN one pair", func(th *core.Thread, src core.Remover, dst core.Inserter, key uint64) (uint64, bool) {
			vals, ok := th.TransferN(src, dst, []uint64{key}, []uint64{key})
			if !ok {
				return 0, false
			}
			return vals[0], true
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			var want string
			for _, fe := range fronts {
				f := newFixture(t, obs.Config{Trace: true})
				src, dst, key := in.prep(f)
				publishKinds(f.th) // drop the setup's events
				val, ok := fe.run(f.th, src, dst, key)
				if !ok {
					val = 0 // a failed call's value is unspecified
				}
				kinds, exhausted := publishKinds(f.th), f.th.Exhausted()
				if ok != in.ok || exhausted != in.starve || f.th.MoveInFlight() {
					t.Fatalf("%s: ok=%v exhausted=%v in flight=%v, want ok=%v exhausted=%v",
						fe.name, ok, exhausted, f.th.MoveInFlight(), in.ok, in.starve)
				}
				if wantKinds := map[bool][]uint64{true: {word.KindDCAS}}[ok]; !slices.Equal(kinds, wantKinds) {
					t.Fatalf("%s: publishes descriptors of kinds %v, want %v", fe.name, kinds, wantKinds)
				}
				got := fmt.Sprint(val, ok, " ", f.state())
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s gives %s, %s gives %s", fronts[0].name, want, fe.name, got)
				}
			}
		})
	}

	wide := []struct {
		name string
		run  func(f *fixture) bool
	}{
		{"MoveN two targets", func(f *fixture) bool {
			_, ok := f.th.MoveN(f.q, []core.Inserter{f.s, f.s2}, 0, []uint64{0, 0})
			return ok
		}},
		{"TransferN two pairs", func(f *fixture) bool {
			_, ok := f.th.TransferN(f.a, f.b, f.keys, f.keys)
			return ok
		}},
		{"ExecuteKCAS two entries", func(f *fixture) bool {
			var w1, w2 word.Word
			ok, _ := f.th.ExecuteKCAS([]core.KCASEntry{{W: &w1, New: 2}, {W: &w2, New: 4}})
			return ok && w1.Load() == 2 && w2.Load() == 4
		}},
	}
	for _, tc := range wide {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, obs.Config{Trace: true})
			f.peer.FlushMemory()
			publishKinds(f.th)
			if !tc.run(f) {
				t.Fatal("failed")
			}
			if kinds := publishKinds(f.th); !slices.Equal(kinds, []uint64{word.KindMCAS}) {
				t.Fatalf("publishes descriptors of kinds %v, want [%d]", kinds, word.KindMCAS)
			}
		})
	}
}

// TestSharedWordFailsChain: a transfer whose steps would change one
// word — two map inserts linked into one gap, two enqueues behind one
// tail, two pushes onto one top — fails the way an init-phase failure
// does. The call returns nil,false, no object changes, the thread is
// not left inside a move, no hold is left published, the failure is not
// read as exhaustion, and the thread's next Move succeeds.
func TestSharedWordFailsChain(t *testing.T) {
	cases := []struct {
		name string
		dst  func(f *fixture) (core.Inserter, []uint64)
	}{
		{"map keys in one empty bucket", func(f *fixture) (core.Inserter, []uint64) {
			k := uint64(2)
			for !f.b.SameChain(1, k) {
				k++
			}
			return f.b, []uint64{1, k}
		}},
		{"queue", func(f *fixture) (core.Inserter, []uint64) { return f.q, []uint64{0, 1} }},
		{"stack", func(f *fixture) (core.Inserter, []uint64) { return f.s, []uint64{0, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, obs.Config{})
			f.peer.FlushMemory()
			dst, tkeys := tc.dst(f)
			before := f.state()
			if vals, ok := f.th.TransferN(f.a, dst, []uint64{1, 2}, tkeys); ok || vals != nil {
				t.Fatalf("TransferN = %v,%v, want nil,false", vals, ok)
			}
			if got := f.state(); got != before {
				t.Fatalf("failed transfer changed the objects:\n before %s\n after  %s", before, got)
			}
			if inFlight, exhausted := f.th.MoveInFlight(), f.th.Exhausted(); inFlight || exhausted {
				t.Fatalf("in flight=%v exhausted=%v, want false, false", inFlight, exhausted)
			}
			if _, other := f.th.PublishedSlots(); other != 0 {
				t.Fatalf("%d mirror, hold or descriptor slots left published", other)
			}
			if _, ok := f.th.Move(f.q, f.s2, 0, 0); !ok {
				t.Fatal("the thread's next Move failed")
			}
		})
	}
}
