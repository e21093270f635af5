package integration

import (
	"testing"
	"testing/quick"

	"repro/internal/hashmap"
	"repro/internal/msqueue"
	"repro/internal/pqueue"
	"repro/internal/tstack"
)

// Sequential model-based differential tests: drive each container and a
// trivial reference model with the same random operation stream and
// compare every observable result (property-based, testing/quick).

func TestQueueMatchesModel(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	f := func(ops []uint8) bool {
		q := msqueue.New(th)
		var model []uint64
		for i, op := range ops {
			if op%2 == 0 {
				v := uint64(i + 1)
				if !q.Enqueue(th, v) {
					return false
				}
				model = append(model, v)
			} else {
				v, ok := q.Dequeue(th)
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return q.Len(th) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStackMatchesModel(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	f := func(ops []uint8) bool {
		s := tstack.New(th)
		var model []uint64
		for i, op := range ops {
			if op%2 == 0 {
				v := uint64(i + 1)
				if !s.Push(th, v) {
					return false
				}
				model = append(model, v)
			} else {
				v, ok := s.Pop(th)
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				if !ok || v != want {
					return false
				}
				model = model[:len(model)-1]
			}
		}
		return s.Len(th) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapMatchesModel(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	f := func(ops []uint16) bool {
		m := hashmap.New(th, 4) // few buckets: long chains, more edge cases
		model := map[uint64]uint64{}
		for i, op := range ops {
			key := uint64(op % 24)
			switch (op / 24) % 3 {
			case 0:
				_, exists := model[key]
				if m.Insert(th, key, uint64(i)) == exists {
					return false
				}
				if !exists {
					model[key] = uint64(i)
				}
			case 1:
				want, exists := model[key]
				v, ok := m.Remove(th, key)
				if ok != exists || (ok && v != want) {
					return false
				}
				delete(model, key)
			default:
				want, exists := model[key]
				v, ok := m.Contains(th, key)
				if ok != exists || (ok && v != want) {
					return false
				}
			}
		}
		return m.Len(th) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPQueueMatchesModel(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	f := func(ops []uint8) bool {
		pq := pqueue.New(th)
		// Model: multiset of (priority, value); RemoveMin takes the
		// minimum priority; ties broken arbitrarily, so compare
		// priorities only and account values as a multiset.
		type entry struct{ pr, val uint64 }
		var model []entry
		for i, op := range ops {
			if op%2 == 0 {
				pr := uint64(op % 8)
				v := uint64(i + 1)
				if !pq.Insert(th, pr, v) {
					return false
				}
				model = append(model, entry{pr, v})
			} else {
				pr, v, ok := pq.RemoveMin(th)
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok {
					return false
				}
				// Find the minimum priority in the model.
				minPr := model[0].pr
				for _, e := range model {
					if e.pr < minPr {
						minPr = e.pr
					}
				}
				if pr != minPr {
					return false
				}
				// Remove one matching (pr, v) entry.
				found := false
				for j, e := range model {
					if e.pr == pr && e.val == v {
						model = append(model[:j], model[j+1:]...)
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return pq.Len(th) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMoveMatchesModel drives random single-thread moves between a queue
// and a stack alongside a model where move is remove+insert executed
// atomically (trivially so here — this validates the sequential
// semantics of Move including ordering effects).
func TestMoveMatchesModel(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	f := func(ops []uint8) bool {
		q := msqueue.New(th)
		s := tstack.New(th)
		var mq, ms []uint64
		for i, op := range ops {
			switch op % 4 {
			case 0:
				v := uint64(i + 1)
				q.Enqueue(th, v)
				mq = append(mq, v)
			case 1:
				v := uint64(i + 1)
				s.Push(th, v)
				ms = append(ms, v)
			case 2:
				got, gok := th.Move(q, s, 0, 0)
				if len(mq) == 0 {
					if gok {
						return false
					}
					continue
				}
				want := mq[0]
				if !gok || got != want {
					return false
				}
				mq = mq[1:]
				ms = append(ms, want)
			default:
				got, gok := th.Move(s, q, 0, 0)
				if len(ms) == 0 {
					if gok {
						return false
					}
					continue
				}
				want := ms[len(ms)-1]
				if !gok || got != want {
					return false
				}
				ms = ms[:len(ms)-1]
				mq = append(mq, want)
			}
		}
		return q.Len(th) == len(mq) && s.Len(th) == len(ms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
