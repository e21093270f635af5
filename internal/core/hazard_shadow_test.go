package core

import (
	"math/rand"
	"testing"

	"repro/internal/kcas"
	"repro/internal/word"
)

// probeSource is a one-word remover that publishes the slots a list
// remove would before handing its linearization CAS to scas.
type probeSource struct {
	id   uint64
	w    word.Word
	refs [2]uint64
}

func (s *probeSource) ObjectID() uint64                    { return s.id }
func (s *probeSource) Insert(*Thread, uint64, uint64) bool { return false }
func (s *probeSource) Remove(t *Thread, key uint64) (uint64, bool) {
	t.ProtectNode(SlotRemAux, s.refs[0])
	t.ProtectNode(SlotRem0, s.refs[1])
	old := s.w.Load()
	if !t.MoveInFlight() {
		return 7, s.w.CAS(old, old+4)
	}
	return 7, t.SCASRemove(&s.w, old, old+4, 7, s.refs[1]) == FTrue
}

// exhaustedTarget publishes an insert-side slot and then fails in its
// init phase, the way an insert that gets no node from the arena does.
type exhaustedTarget struct {
	id  uint64
	ref uint64
}

func (x *exhaustedTarget) ObjectID() uint64 { return x.id }
func (x *exhaustedTarget) Insert(t *Thread, key, val uint64) bool {
	t.ProtectNode(SlotIns0, x.ref)
	return false
}

// TestHazardShadowMatchesDomain drives random sequences of every call
// that writes this thread's node-domain slots and checks after each step
// that the domain publishes exactly what a model says — so a store the
// shadow elides is only ever one that would not have changed the slot,
// and the helping mirrors (written behind the shadow's back by kcas.Ctx,
// played here by direct domain writes) are never left stale.
func TestHazardShadowMatchesDomain(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := newRT(2)
		rt.RegisterThread() // the checked thread is not tid 0
		th := rt.RegisterThread()
		tid := th.ID()
		src := &probeSource{id: rt.NextObjectID()}
		dst := &exhaustedTarget{id: rt.NextObjectID()}

		var model [nodeSlotsPerThread]uint64
		ref := func() uint64 { // 0 one time in four, else one of a few nodes
			if rng.Intn(4) == 0 {
				return 0
			}
			return word.MakeNode(uint64(1+rng.Intn(5)), uint64(rng.Intn(2)))
		}

		for step := 0; step < 3000; step++ {
			var what string
			switch op := rng.Intn(8); op {
			case 0, 1, 2:
				what = "ProtectNode"
				slot, r := rng.Intn(SlotRemAux+1), ref()
				th.ProtectNode(slot, r)
				model[slot] = word.NodeIndex(r)
			case 3:
				what = "ClearNode"
				slot := rng.Intn(SlotRemAux + 1)
				th.ClearNode(slot)
				model[slot] = 0
			case 4:
				what = "HoldNode"
				i, r := rng.Intn(kcas.MaxEntries), ref()
				th.HoldNode(i, r)
				model[slotChainHoldBase+i] = word.NodeIndex(r)
			case 5:
				what = "ReleaseHolds"
				th.ReleaseHolds()
				for i := 0; i < kcas.MaxEntries; i++ {
					model[slotChainHoldBase+i] = 0
				}
			case 6:
				what = "helper mirror write"
				slot := slotMirrorBase + rng.Intn(kcas.MaxEntries)
				idx := uint64(rng.Intn(3))
				rt.nodeDom.Protect(tid, slot, idx)
				model[slot] = idx
			case 7:
				what = "move whose insert fails in its init phase"
				src.refs = [2]uint64{ref(), ref()}
				dst.ref = ref()
				before := src.w.Load()
				var ok bool
				// A two-step chain takes no hold and releases none: no later
				// step reuses the container slots either capture was made under.
				if rng.Intn(2) == 0 {
					_, ok = th.Move(src, dst, 0, 0)
				} else {
					_, ok = th.MoveN(src, []Inserter{dst}, 0, []uint64{0})
				}
				if ok || th.MoveInFlight() || src.w.Load() != before {
					t.Fatalf("seed %d step %d: failed move returned %v, left move=%v word %d→%d",
						seed, step, ok, th.MoveInFlight(), before, src.w.Load())
				}
				model[SlotRemAux] = word.NodeIndex(src.refs[0])
				model[SlotRem0] = word.NodeIndex(src.refs[1])
				model[SlotIns0] = word.NodeIndex(dst.ref)
			}
			for s := 0; s < nodeSlotsPerThread; s++ {
				if got := rt.nodeDom.Get(tid, s); got != model[s] {
					t.Fatalf("seed %d step %d (%s): slot %d publishes %d, model says %d",
						seed, step, what, s, got, model[s])
				}
			}
		}
		for s := 0; s < nodeSlotsPerThread; s++ {
			if rt.nodeDom.Get(0, s) != 0 {
				t.Fatalf("seed %d: thread 0's slot %d was written", seed, s)
			}
		}
	}
}
