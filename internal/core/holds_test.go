package core

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/kcas"
	"repro/internal/word"
)

// cells is a keyed object whose key k has one linearization word, in
// node refs[k], the way a list's word lives in its predecessor node.
// Remove and Insert publish that node in their side's first container
// slot before scas, so a later step on the same side overwrites the
// protection an earlier capture was made under.
type cells struct {
	id   uint64
	refs []uint64
}

func newCells(t *testing.T, th *Thread, keys int) *cells {
	c := &cells{id: th.Runtime().NextObjectID()}
	for range keys {
		ref := th.AllocNode()
		if ref == word.Nil {
			t.Fatal("arena exhausted")
		}
		th.Node(ref).Next.Store(2)
		c.refs = append(c.refs, ref)
	}
	return c
}

func (c *cells) ObjectID() uint64 { return c.id }

func (c *cells) Remove(t *Thread, key uint64) (uint64, bool) {
	ref := c.refs[key]
	t.ProtectNode(SlotRem0, ref)
	w := &t.Node(ref).Next
	for {
		old := t.Read(w)
		if !t.MoveInFlight() {
			if w.CAS(old, old+2) {
				return old, true
			}
			continue
		}
		switch t.SCASRemove(w, old, old+2, old, ref) {
		case FTrue:
			return old, true
		case FAbort:
			return 0, false
		}
	}
}

func (c *cells) Insert(t *Thread, key, _ uint64) bool {
	ref := c.refs[key]
	t.ProtectNode(SlotIns0, ref)
	w := &t.Node(ref).Next
	for {
		old := t.Read(w)
		if !t.MoveInFlight() {
			if w.CAS(old, old+2) {
				return true
			}
			continue
		}
		switch t.SCASInsert(w, old, old+2, ref) {
		case FTrue:
			return true
		case FAbort:
			return false
		}
	}
}

// TestHoldsOnlyWhereASideRecurs parks a chain's initiator right after
// it publishes, with every entry captured, and checks the hold rule: a
// step publishes a hold slot exactly when a later step of the chain is
// on its side, and that is enough — a peer that retires every node the
// chain captured and scans frees none of them. After the chain returns
// no hold is left published.
func TestHoldsOnlyWhereASideRecurs(t *testing.T) {
	cases := []struct {
		name  string
		holds []int // steps whose side recurs later in the chain
		run   func(t *testing.T, th *Thread) (func() bool, []uint64)
	}{
		{"MoveN three targets", []int{1, 2}, func(t *testing.T, th *Thread) (func() bool, []uint64) {
			src := newCells(t, th, 1)
			dsts := []*cells{newCells(t, th, 1), newCells(t, th, 1), newCells(t, th, 1)}
			nodes := []uint64{src.refs[0], dsts[0].refs[0], dsts[1].refs[0], dsts[2].refs[0]}
			return func() bool {
				_, ok := th.MoveN(src, []Inserter{dsts[0], dsts[1], dsts[2]}, 0, []uint64{0, 0, 0})
				return ok
			}, nodes
		}},
		{"TransferN two pairs", []int{0, 1}, func(t *testing.T, th *Thread) (func() bool, []uint64) {
			src, dst := newCells(t, th, 2), newCells(t, th, 2)
			nodes := []uint64{src.refs[0], dst.refs[0], src.refs[1], dst.refs[1]}
			return func() bool {
				_, ok := th.TransferN(src, dst, []uint64{0, 1}, []uint64{0, 1})
				return ok
			}, nodes
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.NewPlan()
			rt := NewRuntime(Config{MaxThreads: 2, ArenaCapacity: 1 << 16, Fault: plan})
			th, peer := rt.RegisterThread(), rt.RegisterThread()
			op, nodes := tc.run(t, th)
			plan.Park(fault.KCASAfterPublish, fault.Nth(1).OnThread(th.ID()))

			done := make(chan bool)
			go func() { done <- op() }()
			for i := 0; plan.Parked() == 0; i++ {
				if i > 5000 {
					t.Fatal("initiator never parked")
				}
				time.Sleep(time.Millisecond)
			}

			want := make([]uint64, kcas.MaxEntries)
			for _, j := range tc.holds {
				want[j] = word.NodeIndex(nodes[j])
			}
			for i := range want {
				if got := rt.nodeDom.Get(th.ID(), slotChainHoldBase+i); got != want[i] {
					t.Errorf("hold slot %d publishes %d, want %d", i, got, want[i])
				}
			}
			for _, ref := range nodes {
				peer.RetireNode(ref)
			}
			peer.cache.Scan()
			if kept := peer.cache.LocalRetired(); kept != len(nodes) {
				t.Errorf("a peer's scan freed %d of the parked chain's %d nodes", len(nodes)-kept, len(nodes))
			}

			plan.Release()
			select {
			case ok := <-done:
				if !ok {
					t.Fatal("chain failed")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("initiator did not return after release")
			}
			if _, _, other := th.PublishedSlots(); other != 0 || th.MoveInFlight() {
				t.Fatalf("after the chain: %d hold, mirror or descriptor slots published, in flight=%v",
					other, th.MoveInFlight())
			}
		})
	}
}
