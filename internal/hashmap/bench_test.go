package hashmap

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// The benchmarks below reproduce, inside the repository, what the nested
// bench/ module measures on lib_map_kway (MapReadMostly) and lib_map_grow
// (FillDrain; FillWithGrows is its one-thread fill):
//
//	go test -run '^$' -bench 'MapReadMostly|FillDrain|FillWithGrows' -cpu 2 ./internal/hashmap
//
// MapReadMostly and FillDrain need two processors to show coherence
// cost: at -cpu 1 their two goroutines never write a line the other
// holds.

// BenchmarkMapReadMostly runs two goroutines over two pre-sized maps
// that never grow: 70 % Contains of any key, 10 % insert/remove churn on
// a private key range, 20 % keyed Move of an own-parity key to the other
// map. Almost no operation meets the other thread, so ns/op is the
// uncontended cost of the keyed paths plus whatever the two threads
// invalidate for each other.
func BenchmarkMapReadMostly(b *testing.B) {
	const (
		workers = 2
		keys    = 4096
		churn   = 1024
	)
	rt := core.NewRuntime(core.Config{MaxThreads: workers + 1})
	setup := rt.RegisterThread()
	maps := [2]*Map{NewSharded(setup, 8, 512, 0), NewSharded(setup, 8, 512, 0)}
	var loc [workers][]uint8 // loc[id][k]: which map holds own key k
	for id := range loc {
		loc[id] = make([]uint8, keys)
	}
	rng := xrand.New(1)
	for k := uint64(0); k < keys; k++ {
		side := uint8(rng.Uint64() & 1)
		loc[k%workers][k] = side
		maps[side].Insert(setup, k, k+1)
	}
	ths := [workers]*core.Thread{rt.RegisterThread(), rt.RegisterThread()}

	b.ResetTimer()
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, loc := ths[id], loc[id]
			rng := xrand.New(uint64(id) + 2)
			base := uint64(keys + id*churn)
			var churnN uint64 // even: insert key churnN/2, odd: remove it
			for i := id; i < b.N; i += workers {
				switch p := rng.Intn(100); {
				case p < 70:
					maps[rng.Uint64()&1].Contains(th, uint64(rng.Intn(keys)))
				case p < 80:
					k, m := base+(churnN/2)%churn, maps[(churnN/2)&1]
					if churnN&1 == 0 {
						m.Insert(th, k, k+1)
					} else {
						m.Remove(th, k)
					}
					churnN++
				default:
					k := uint64(rng.Intn(keys/workers))*workers + uint64(id)
					from := loc[k]
					if _, ok := th.Move(maps[from], maps[1-from], k, k); !ok {
						b.Errorf("Move(%d) of an own key failed", k)
						return
					}
					loc[k] = 1 - from
				}
			}
		}(id)
	}
	wg.Wait()
	b.StopTimer()
	for _, m := range maps {
		if grows, _, _ := m.Stats(); grows != 0 {
			b.Fatalf("pre-sized map grew %d times", grows)
		}
	}
}

// BenchmarkFillWithGrows fills an 8×8 map to 32 k keys from one thread —
// at the default load of 2 every shard doubles eight times, nine if its
// share passes 4 096 keys, and links 2 040 sentinels or more — and
// reports the fill's time per insert, doublings and sentinel links
// included, next to the allocations of one fill.
func BenchmarkFillWithGrows(b *testing.B) {
	const keys = 32768
	b.ReportAllocs()
	var spent time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := core.NewRuntime(core.Config{MaxThreads: 1})
		th := rt.RegisterThread()
		m := NewSharded(th, 8, 8, 0)
		m.Insert(th, keys, 1) // first use carves the arena slab and the caches
		m.Remove(th, keys)
		b.StartTimer()
		t0 := time.Now()
		for k := uint64(0); k < keys; k++ {
			m.Insert(th, k, k+1)
		}
		spent += time.Since(t0)
		if n := m.Len(th); n != keys {
			b.Fatalf("Len = %d after the fill, want %d", n, keys)
		}
		if grows, _, _ := m.Stats(); grows == 0 {
			b.Fatal("the fill never grew the map")
		}
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*keys), "ns/insert")
}

// BenchmarkFillDrain is one cycle of lib_map_grow per iteration: on a
// fresh 8×8 map at the default grow load, two goroutines each insert
// their half of 32 k keys, read one earlier key of their own per four
// inserts, then remove their half again. ns/op is the time of one cycle,
// the runtime's and the map's construction excluded.
func BenchmarkFillDrain(b *testing.B) {
	const (
		workers = 2
		keys    = 32768
	)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := core.NewRuntime(core.Config{MaxThreads: workers + 1})
		m := NewSharded(rt.RegisterThread(), 8, 8, 0)
		var ths [workers]*core.Thread
		for id := range ths {
			ths[id] = rt.RegisterThread()
			m.Insert(ths[id], keys, 1) // first use carves the arena slab and the caches
			m.Remove(ths[id], keys)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := ths[id]
				lo, hi := uint64(id)*keys/workers, uint64(id+1)*keys/workers
				for k := lo; k < hi; k++ {
					if !m.Insert(th, k, k+1) {
						b.Errorf("Insert of absent key %d refused", k)
						return
					}
					if k&3 == 3 {
						p := lo + (k-lo)/2
						if v, ok := m.Contains(th, p); !ok || v != p+1 {
							b.Errorf("Contains(%d) = %d,%v during the fill", p, v, ok)
							return
						}
					}
				}
				for k := lo; k < hi; k++ {
					if v, ok := m.Remove(th, k); !ok || v != k+1 {
						b.Errorf("Remove(%d) = %d,%v, want %d,true", k, v, ok, k+1)
						return
					}
				}
			}(id)
		}
		wg.Wait()
		if n := m.Len(ths[0]); n != 0 {
			b.Fatalf("%d entries left after the drain", n)
		}
	}
}
