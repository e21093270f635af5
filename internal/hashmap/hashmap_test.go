package hashmap

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/msqueue"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18, DescCapacity: 1 << 14})
}

func TestBasicOps(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	m := New(th, 16)
	if m.Buckets() != 16 {
		t.Fatalf("buckets=%d", m.Buckets())
	}
	for k := uint64(0); k < 1000; k++ {
		if !m.Insert(th, k, k*3) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if m.Len(th) != 1000 {
		t.Fatalf("Len=%d", m.Len(th))
	}
	if m.Insert(th, 500, 1) {
		t.Fatal("duplicate must fail")
	}
	for k := uint64(0); k < 1000; k++ {
		if v, ok := m.Contains(th, k); !ok || v != k*3 {
			t.Fatalf("Contains(%d)=%d,%v", k, v, ok)
		}
	}
	for k := uint64(0); k < 1000; k += 2 {
		if v, ok := m.Remove(th, k); !ok || v != k*3 {
			t.Fatalf("Remove(%d)=%d,%v", k, v, ok)
		}
	}
	if m.Len(th) != 500 {
		t.Fatalf("Len=%d after removes", m.Len(th))
	}
	// 1000 inserts at 16 initial buckets crosses the default load
	// threshold: the map must have grown and kept every entry.
	if grows, _, _ := m.Stats(); grows == 0 {
		t.Fatal("expected at least one grow at this load")
	}
	if m.Buckets() <= 16 {
		t.Fatalf("Buckets=%d, map never grew", m.Buckets())
	}
}

func TestBucketRounding(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {16, 16}, {17, 32}} {
		if got := New(th, tc.in).Buckets(); got != tc.want {
			t.Fatalf("New(%d).Buckets()=%d want %d", tc.in, got, tc.want)
		}
	}
}

// TestGrowPreservesEntries forces aggressive growth on a tiny map and
// checks no entry is lost, duplicated or corrupted.
func TestGrowPreservesEntries(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	m := NewSharded(th, 2, 1, 2) // 2 shards × 1 bucket, grow at 2/bucket
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		if !m.Insert(th, k, k^0xabc) {
			t.Fatalf("insert %d failed", k)
		}
	}
	m.Quiesce(th)
	grows, sentinels, _ := m.Stats()
	if grows == 0 || sentinels == 0 {
		t.Fatalf("grows=%d sentinels=%d; grow path never ran", grows, sentinels)
	}
	if m.Buckets() <= 2 {
		t.Fatalf("Buckets=%d, never grew", m.Buckets())
	}
	if m.Len(th) != n {
		t.Fatalf("Len=%d want %d", m.Len(th), n)
	}
	keys := m.Keys(th)
	if len(keys) != n {
		t.Fatalf("Keys returned %d entries, want %d", len(keys), n)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("keys[%d]=%d: lost or duplicated entries", i, k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Contains(th, k); !ok || v != k^0xabc {
			t.Fatalf("Contains(%d)=%d,%v after grow", k, v, ok)
		}
	}
}

// TestRebalanceStepDrivesGrow checks the incremental driver: the
// sentinels of a forced Grow are all linked purely by RebalanceStep
// calls.
func TestRebalanceStepDrivesGrow(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	m := NewSharded(th, 4, 4, 1<<30) // threshold unreachable: only Grow doubles
	const n = 500
	for k := uint64(1); k <= n; k++ {
		m.Insert(th, k, k)
	}
	before := m.Buckets()
	m.Grow(th)
	steps := 0
	for m.RebalanceStep(th) {
		steps++
		if steps > 100000 {
			t.Fatal("RebalanceStep never converged")
		}
	}
	if got := m.Buckets(); got != before*2 {
		t.Fatalf("Buckets=%d want %d after forced grow", got, before*2)
	}
	grows, sentinels, stepped := m.Stats()
	if grows != uint64(m.Shards()) {
		t.Fatalf("grows=%d want one per shard (%d)", grows, m.Shards())
	}
	if sentinels != uint64(before) {
		t.Fatalf("sentinels=%d want %d (one per new bucket)", sentinels, before)
	}
	if stepped != sentinels || steps != before {
		t.Fatalf("steps stat=%d loop=%d, want one step per sentinel (%d)", stepped, steps, sentinels)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Contains(th, k); !ok || v != k {
			t.Fatalf("Contains(%d)=%d,%v after stepped grow", k, v, ok)
		}
	}
}

// TestInsertRemoveRacingGrow: churn threads hammer disjoint key ranges
// while a rebalancer forces and drives grows; every thread's final view
// must match what it last did, and the map must audit clean.
func TestInsertRemoveRacingGrow(t *testing.T) {
	const workers = 4
	const span = 400 // keys per worker
	rt := newRT(workers + 2)
	setup := rt.RegisterThread()
	m := NewSharded(setup, 2, 1, 4)

	var stop atomic.Bool
	var wg sync.WaitGroup
	reb := rt.RegisterThread()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if !m.RebalanceStep(reb) {
				m.Grow(reb)
				runtime.Gosched()
			}
		}
	}()

	present := make([][]bool, workers)
	var cwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		present[w] = make([]bool, span)
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			th := rt.RegisterThread()
			base := uint64(w*span) + 1
			rng := uint64(w)*0x9e3779b97f4a7c15 + 7
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < 6000; i++ {
				idx := next() % span
				k := base + idx
				switch next() % 3 {
				case 0:
					if m.Insert(th, k, k*11) {
						if present[w][idx] {
							t.Errorf("insert %d succeeded but key was present", k)
							return
						}
						present[w][idx] = true
					} else if !present[w][idx] {
						t.Errorf("insert %d failed but key was absent", k)
						return
					}
				case 1:
					if v, ok := m.Remove(th, k); ok {
						if !present[w][idx] || v != k*11 {
							t.Errorf("remove %d=(%d,%v) but present=%v", k, v, ok, present[w][idx])
							return
						}
						present[w][idx] = false
					} else if present[w][idx] {
						t.Errorf("remove %d failed but key was present", k)
						return
					}
				default:
					if v, ok := m.Contains(th, k); ok != present[w][idx] || (ok && v != k*11) {
						t.Errorf("contains %d=(%d,%v) but present=%v", k, v, ok, present[w][idx])
						return
					}
				}
			}
			th.FlushMemory()
		}(w)
	}
	cwg.Wait()
	stop.Store(true)
	wg.Wait()
	m.Quiesce(setup)

	want := 0
	for w := 0; w < workers; w++ {
		for idx := 0; idx < span; idx++ {
			k := uint64(w*span) + 1 + uint64(idx)
			v, ok := m.Contains(setup, k)
			if ok != present[w][idx] {
				t.Fatalf("audit: key %d present=%v want %v", k, ok, present[w][idx])
			}
			if ok {
				want++
				if v != k*11 {
					t.Fatalf("audit: key %d corrupted to %d", k, v)
				}
			}
		}
	}
	if got := m.Len(setup); got != want {
		t.Fatalf("Len=%d want %d", got, want)
	}
	if keys := m.Keys(setup); len(keys) != want {
		t.Fatalf("Keys walk found %d entries, counters say %d", len(keys), want)
	}
}

// TestMoveHashMapQueue reproduces the paper's §1.1 scenario: a hash map
// composed with another container through atomic moves.
func TestMoveHashMapQueue(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	m := New(th, 8)
	q := msqueue.New(th)
	m.Insert(th, 77, 770)

	// Move the entry out of the map into the queue.
	if v, ok := th.Move(m, q, 77, 0); !ok || v != 770 {
		t.Fatalf("map→queue move: %d,%v", v, ok)
	}
	if _, ok := m.Contains(th, 77); ok {
		t.Fatal("key should have left the map")
	}
	// And back under a different key.
	if v, ok := th.Move(q, m, 0, 99); !ok || v != 770 {
		t.Fatalf("queue→map move: %d,%v", v, ok)
	}
	if v, ok := m.Contains(th, 99); !ok || v != 770 {
		t.Fatal("moved entry must appear under the target key")
	}
	// Moving onto an existing key aborts and leaves both unchanged.
	q.Enqueue(th, 123)
	if _, ok := th.Move(q, m, 0, 99); ok {
		t.Fatal("move onto duplicate key must abort")
	}
	if q.Len(th) != 1 {
		t.Fatal("aborted move changed the queue")
	}
	if v, _ := m.Contains(th, 99); v != 770 {
		t.Fatal("aborted move changed the map")
	}
}

// TestConcurrentMapMoves: tokens live in either of two maps (as keys);
// moves shuffle them around while both maps keep growing; at the end
// each token exists exactly once.
func TestConcurrentMapMoves(t *testing.T) {
	const workers = 8
	const tokens = 256
	const opsPer = 2000
	rt := newRT(workers + 2)
	setup := rt.RegisterThread()
	m1 := NewSharded(setup, 2, 2, 4)
	m2 := NewSharded(setup, 2, 2, 4)
	for i := uint64(1); i <= tokens; i++ {
		if i%2 == 0 {
			m1.Insert(setup, i, i)
		} else {
			m2.Insert(setup, i, i)
		}
	}
	var stop atomic.Bool
	var rwg sync.WaitGroup
	reb := rt.RegisterThread()
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for !stop.Load() {
			did := m1.RebalanceStep(reb)
			if m2.RebalanceStep(reb) {
				did = true
			}
			if !did {
				m1.Grow(reb)
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 3
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPer; i++ {
				key := next()%tokens + 1
				// Key moves between maps keep key==value so we can audit.
				if next()&1 == 0 {
					th.Move(m1, m2, key, key)
				} else {
					th.Move(m2, m1, key, key)
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	m1.Quiesce(setup)
	m2.Quiesce(setup)
	count := 0
	for i := uint64(1); i <= tokens; i++ {
		in1, ok1 := m1.Contains(setup, i)
		in2, ok2 := m2.Contains(setup, i)
		if ok1 && ok2 {
			t.Fatalf("token %d present in both maps", i)
		}
		if !ok1 && !ok2 {
			t.Fatalf("token %d lost", i)
		}
		v := in1
		if ok2 {
			v = in2
		}
		if v != i {
			t.Fatalf("token %d corrupted to %d", i, v)
		}
		count++
	}
	if count != tokens {
		t.Fatalf("accounted %d of %d tokens", count, tokens)
	}
}

// TestContentionStatsShape: one counter per shard, all zero on an
// uncontended map, and the slice tracks the shard count.
func TestContentionStatsShape(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	m := NewSharded(th, 4, 2, 0)
	cs := m.ContentionStats()
	if len(cs) != m.Shards() {
		t.Fatalf("len=%d want %d", len(cs), m.Shards())
	}
	for i, n := range cs {
		if n != 0 {
			t.Fatalf("shard %d: %d retries on a fresh map", i, n)
		}
	}
	for k := uint64(0); k < 256; k++ {
		m.Insert(th, k, k)
		m.Remove(th, k)
	}
	for i, n := range m.ContentionStats() {
		if n != 0 {
			t.Fatalf("shard %d: %d retries single-threaded", i, n)
		}
	}
}

// TestContentionStatsUnderContention hammers one hot key from several
// threads and checks the aggregate is monotone and plausibly placed
// (any nonzero count must sit in the hot key's shard). CAS failures
// need real interleaving, so the positive case is logged rather than
// asserted — on a single-CPU host the counters may stay zero.
func TestContentionStatsUnderContention(t *testing.T) {
	const threads = 4
	rt := newRT(threads + 1)
	setup := rt.RegisterThread()
	m := NewSharded(setup, 4, 4, 1<<20) // huge grow load: no grows, pure CAS traffic
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				m.Insert(th, 7, uint64(i))
				m.Remove(th, 7)
			}
		}(th)
	}
	wg.Wait()
	cs := m.ContentionStats()
	hot := int(hash(7) & m.shardMask)
	var total uint64
	for i, n := range cs {
		total += n
		if n != 0 && i != hot {
			t.Fatalf("retries %d recorded on shard %d; only shard %d was touched", n, i, hot)
		}
	}
	t.Logf("hot-shard retries after storm: %d", total)
}
