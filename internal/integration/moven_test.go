package integration

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

func TestMoveNAbortsOnDuplicateKey(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	src := msqueue.New(th)
	m := hashmap.New(th, 4)
	s := tstack.New(th)
	src.Enqueue(th, 5)
	m.Insert(th, 9, 999) // target key occupied

	if _, ok := th.MoveN(src, []core.Inserter{s, m}, 0, []uint64{0, 9}); ok {
		t.Fatal("MoveN into occupied key must abort")
	}
	if src.Len(th) != 1 {
		t.Fatal("aborted MoveN must leave the source unchanged")
	}
	if s.Len(th) != 0 {
		t.Fatal("aborted MoveN must leave intermediate targets unchanged")
	}
	if v, _ := m.Contains(th, 9); v != 999 {
		t.Fatal("aborted MoveN disturbed the map")
	}
	// Retry with a free key succeeds.
	if v, ok := th.MoveN(src, []core.Inserter{s, m}, 0, []uint64{0, 10}); !ok || v != 5 {
		t.Fatalf("MoveN retry: %d,%v", v, ok)
	}
	if v, _ := m.Contains(th, 10); v != 5 {
		t.Fatal("MoveN result missing from map")
	}
	if v, _ := s.Pop(th); v != 5 {
		t.Fatal("MoveN result missing from stack")
	}
}

func TestMoveNValidation(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	q.Enqueue(th, 1)
	for name, f := range map[string]func(){
		"no targets":       func() { th.MoveN(q, nil, 0, nil) },
		"same as source":   func() { th.MoveN(q, []core.Inserter{q}, 0, []uint64{0}) },
		"duplicate target": func() { th.MoveN(q, []core.Inserter{s, s}, 0, []uint64{0, 0}) },
		"key mismatch":     func() { th.MoveN(q, []core.Inserter{s}, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	// Thread remains usable after the panics.
	if v, ok := th.Move(q, s, 0, 0); ok && v == 1 {
		return
	}
	t.Fatal("thread unusable after rejected MoveN")
}

// insertOnly wraps a stack exposing only the Inserter half — the shape
// of a target that can receive elements but was never meant to be a
// Remover (e.g. an append-only sink).
type insertOnly struct {
	s *tstack.Stack
}

func (io *insertOnly) Insert(t *core.Thread, key, val uint64) bool {
	return io.s.Insert(t, key, val)
}

// insertOnlyID additionally carries the wrapped object's identity.
type insertOnlyID struct {
	insertOnly
}

func (io *insertOnlyID) ObjectID() uint64 { return io.s.ObjectID() }

// TestMoveNDuplicateInsertOnlyTarget pins the target-aliasing precheck
// regression: the old precheck routed each prior target through a
// Remover type assertion, which yields nil for insert-only targets, so
// the pairwise-distinct check silently never fired and an aliased pair
// slipped into the chain (surfacing only as a mid-chain shared-word
// panic after the source remove had already been captured). The fixed
// precheck compares target identities directly and must reject the
// aliased pair up front, before anything is touched.
func TestMoveNDuplicateInsertOnlyTarget(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	src := msqueue.New(th)
	s := tstack.New(th)
	src.Enqueue(th, 41)

	same := &insertOnly{s: s}
	withID := &insertOnlyID{insertOnly{s: s}}
	otherID := &insertOnlyID{insertOnly{s: s}} // distinct wrapper, same object

	for name, dsts := range map[string][]core.Inserter{
		"same wrapper twice":         {same, same},
		"distinct wrappers, same id": {withID, otherID},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: aliased insert-only targets must panic", name)
				}
				if msg, _ := r.(string); msg != "core: MoveN requires pairwise distinct targets" {
					// A mid-chain shared-word panic here would mean the
					// precheck regressed to the asRemover form.
					t.Fatalf("%s: wrong panic %v; the precheck must fire before the chain runs", name, r)
				}
			}()
			th.MoveN(src, dsts, 0, []uint64{0, 0})
		}()
		if src.Len(th) != 1 || s.Len(th) != 0 {
			t.Fatalf("%s: rejected MoveN must leave the objects untouched", name)
		}
	}

	// A single insert-only target remains legal, and the thread is intact.
	if v, ok := th.MoveN(src, []core.Inserter{same}, 0, []uint64{0}); !ok || v != 41 {
		t.Fatalf("single insert-only target: %d,%v", v, ok)
	}
	if v, _ := s.Pop(th); v != 41 {
		t.Fatal("element missing from target after MoveN")
	}
}

// TestMoveNFanOutDuringGrow drives the §8 extension against a growing
// map: MoveN removes a key from one map and inserts it into a second
// map and an audit queue atomically, while the source keeps growing.
func TestMoveNFanOutDuringGrow(t *testing.T) {
	rt := newRT(3)
	setup := rt.RegisterThread()
	ma := hashmap.NewSharded(setup, 2, 1, 2)
	mb := hashmap.NewSharded(setup, 2, 1, 1<<30)
	q := msqueue.New(setup)

	const n = 300
	for i := uint64(1); i <= n; i++ {
		ma.Insert(setup, i, i*7)
	}
	ma.Grow(setup) // doubled, no sentinel linked: the fan-outs meet buckets in every state

	th := rt.RegisterThread()
	moved := 0
	for i := uint64(1); i <= n; i++ {
		// Link a sentinel between fan-outs, so that some moves find their
		// bucket's already there and others link it themselves.
		ma.RebalanceStep(th)
		if _, ok := th.MoveN(ma, []core.Inserter{mb, q}, i, []uint64{i, 0}); ok {
			moved++
		}
	}
	for ma.RebalanceStep(th) {
	}
	if moved != n {
		t.Fatalf("moved %d of %d entries out of a growing map", moved, n)
	}
	if got := ma.Len(setup); got != 0 {
		t.Fatalf("source still holds %d entries", got)
	}
	if got := mb.Len(setup); got != n {
		t.Fatalf("target map holds %d entries, want %d", got, n)
	}
	if got := q.Len(setup); got != n {
		t.Fatalf("audit queue holds %d entries, want %d", got, n)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := mb.Contains(setup, i); !ok || v != i*7 {
			t.Fatalf("entry %d=(%d,%v) corrupted by fan-out", i, v, ok)
		}
	}
}
