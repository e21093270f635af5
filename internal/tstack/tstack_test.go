package tstack

import (
	"sync"
	"testing"

	"repro/internal/core"
)

func newRT() *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: 16, ArenaCapacity: 1 << 18})
}

func TestPushPopLIFO(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	for _, s := range []*Stack{New(th), NewVersioned(th)} {
		for i := uint64(1); i <= 100; i++ {
			if !s.Push(th, i) {
				t.Fatal("plain push must succeed")
			}
		}
		for i := uint64(100); i >= 1; i-- {
			v, ok := s.Pop(th)
			if !ok || v != i {
				t.Fatalf("versioned=%v pop: got %d ok=%v want %d", s.Versioned(), v, ok, i)
			}
		}
		if _, ok := s.Pop(th); ok {
			t.Fatal("empty stack must report false")
		}
	}
}

func TestPopEmptyThenReuse(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	for _, s := range []*Stack{New(th), NewVersioned(th)} {
		if _, ok := s.Pop(th); ok {
			t.Fatal("pop on empty must fail")
		}
		s.Push(th, 1)
		s.Push(th, 2)
		if v, _ := s.Pop(th); v != 2 {
			t.Fatal("LIFO broken after empty pop")
		}
		if v, _ := s.Pop(th); v != 1 {
			t.Fatal("LIFO broken after empty pop")
		}
		if _, ok := s.Pop(th); ok {
			t.Fatal("stack should be empty again")
		}
	}
}

func TestVersionedEmptyEncoding(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	s := NewVersioned(th)
	// Drive the version counter through empty states repeatedly; the
	// "versioned nil" encoding must still read as empty.
	for round := 0; round < 50; round++ {
		s.Push(th, uint64(round))
		if v, ok := s.Pop(th); !ok || v != uint64(round) {
			t.Fatalf("round %d: pop %d ok=%v", round, v, ok)
		}
		if _, ok := s.Pop(th); ok {
			t.Fatalf("round %d: stack must be empty", round)
		}
		if s.Len(th) != 0 {
			t.Fatalf("round %d: Len must be 0", round)
		}
	}
}

func TestLenAndDrain(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	s := New(th)
	for i := uint64(0); i < 25; i++ {
		s.Push(th, i)
	}
	if s.Len(th) != 25 {
		t.Fatalf("Len=%d", s.Len(th))
	}
	if s.Drain(th) != 25 {
		t.Fatal("Drain count")
	}
}

// TestConcurrentConservation: tokens pushed by producers are popped
// exactly once across all consumers.
func TestConcurrentConservation(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		versioned := versioned
		name := "plain"
		if versioned {
			name = "versioned"
		}
		t.Run(name, func(t *testing.T) {
			const workers, per = 8, 4000
			rt := core.NewRuntime(core.Config{MaxThreads: workers + 1, ArenaCapacity: 1 << 18})
			setup := rt.RegisterThread()
			var s *Stack
			if versioned {
				s = NewVersioned(setup)
			} else {
				s = New(setup)
			}
			var wg sync.WaitGroup
			popped := make([][]uint64, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := rt.RegisterThread()
					for i := 0; i < per; i++ {
						if w%2 == 0 {
							s.Push(th, uint64(w)<<32|uint64(i))
						} else if v, ok := s.Pop(th); ok {
							popped[w] = append(popped[w], v)
						}
					}
					th.FlushMemory()
				}(w)
			}
			wg.Wait()
			// Drain the rest.
			rest := 0
			seen := map[uint64]bool{}
			for {
				v, ok := s.Pop(setup)
				if !ok {
					break
				}
				if seen[v] {
					t.Fatalf("value %#x on stack twice", v)
				}
				seen[v] = true
				rest++
			}
			total := rest
			for _, ps := range popped {
				for _, v := range ps {
					if seen[v] {
						t.Fatalf("value %#x popped twice", v)
					}
					seen[v] = true
					total++
				}
			}
			if total != (workers/2)*per {
				t.Fatalf("pushed %d, accounted %d", (workers/2)*per, total)
			}
		})
	}
}
