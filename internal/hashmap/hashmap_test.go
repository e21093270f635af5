package hashmap

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/msqueue"
	"repro/internal/obs"
	"repro/internal/verify"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18})
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

// TestDefaultLoadBoundsBuckets fills a default-threshold 8×8 map with
// 32 k keys from one thread: the mean load stays within DefaultGrowLoad,
// every shard ends at the smallest doubling of its 8 buckets that holds
// its keys within the lag bound (checkBuckets), and the grower linked
// every new bucket's sentinel itself (linkAll), so a fill-time operation
// starts at its own bucket. The drain then empties the map.
func TestDefaultLoadBoundsBuckets(t *testing.T) {
	const keys, initial = 32768, 8
	th := newRT(1).RegisterThread()
	m := NewSharded(th, 8, initial, 0)
	for k := uint64(0); k < keys; k++ {
		if !m.Insert(th, k, k+1) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if n := m.Len(th); n != keys || n > DefaultGrowLoad*m.Buckets() {
		t.Fatalf("Len=%d in %d buckets: want %d within load %d", n, m.Buckets(), keys, DefaultGrowLoad)
	}
	want := checkBuckets(t, m, initial, 1, 0)
	grows, sentinels, _ := m.Stats()
	if grows != want {
		t.Fatalf("grows=%d, want %d", grows, want)
	}
	if newBuckets := uint64(m.Buckets() - m.Shards()*initial); sentinels != newBuckets {
		t.Fatalf("sentinels=%d, want one per new bucket (%d)", sentinels, newBuckets)
	}
	for k := uint64(0); k < keys; k++ {
		if v, ok := m.Remove(th, k); !ok || v != k+1 {
			t.Fatalf("Remove(%d)=%d,%v", k, v, ok)
		}
	}
	if n := m.Len(th); n != 0 {
		t.Fatalf("Len=%d after the drain", n)
	}
}

// checkBuckets checks every shard of m, which started at initial buckets
// per shard and grows at DefaultGrowLoad, against the lag bound of the
// striped counts: inserting threads may each have added up to q − 1
// entries beyond a doubling threshold T before one of them reads the
// shard's size. So a shard of n entries ends at the smallest doubling
// whose threshold plus that lag holds n, and no larger than the
// smallest whose T holds n + slack: slack is how far a shard's size,
// read while the threads ran, may have exceeded its size now. It
// returns the number of doublings the shards made.
func checkBuckets(t *testing.T, m *Map, initial uint64, threads, slack int64) (doublings uint64) {
	t.Helper()
	for i := range m.shards {
		n := m.size(uint64(i))
		lo, hi := initial, initial
		for n > int64(lo)*DefaultGrowLoad+threads*checkMask(int64(lo)*DefaultGrowLoad) {
			lo *= 2
		}
		for n+slack > int64(hi)*DefaultGrowLoad {
			hi *= 2
		}
		got := m.shards[i].dir.Load().mask + 1
		if got < lo || got > hi {
			t.Errorf("shard %d: %d entries in %d buckets, want %d..%d", i, n, got, lo, hi)
		}
		for b := initial; b < got; b *= 2 {
			doublings++
		}
	}
	return doublings
}

// TestStripesSumToLen races two threads' inserts and removes over a
// default-threshold map, and then each thread's removes of keys the
// other inserted, so that one thread's stripes go negative. At
// quiescence the stripes sum to Len and to the keys present, and every
// shard's size is the smallest doubling that holds its entries within
// the lag bound.
func TestStripesSumToLen(t *testing.T) {
	const n, initial = 1 << 14, 8
	rt := newRT(2)
	ths := []*core.Thread{rt.RegisterThread(), rt.RegisterThread()}
	m := NewSharded(ths[0], 8, initial, 0)
	ranges := [2][2]uint64{{0, n}, {n, n + n/4}} // thread i's keys
	run := func(f func(i int)) {
		var wg sync.WaitGroup
		for i := range ths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(i)
			}()
		}
		wg.Wait()
	}
	// Thread 0 inserts the keys [0, n), thread 1 [n, n+n/4), and each
	// removes every fourth of its keys again at once: the map never holds
	// more than one entry per thread beyond what it holds at the end.
	run(func(i int) {
		th := ths[i]
		for k := ranges[i][0]; k < ranges[i][1]; k++ {
			if !m.Insert(th, k, k) {
				t.Errorf("Insert(%d) failed", k)
			}
			if k%4 == 0 {
				if _, ok := m.Remove(th, k); !ok {
					t.Errorf("Remove(%d) failed", k)
				}
			}
		}
	})
	checkBuckets(t, m, initial, 2, 2)
	// Each thread removes some of the other's keys: thread 1 the n/4 keys
	// k%4 == 1 of thread 0, more than it holds of its own; thread 0 the
	// n/16 keys k%4 == 2 of thread 1.
	run(func(i int) {
		other, class := ranges[1-i], uint64(2-i)
		for k := other[0]; k < other[1]; k++ {
			if k%4 != class {
				continue
			}
			if v, ok := m.Remove(ths[i], k); !ok || v != k {
				t.Errorf("Remove(%d)=%d,%v", k, v, ok)
			}
		}
	})
	var sum, th1 int64
	for si := range m.shards {
		sum += m.size(uint64(si))
		th1 += m.count(ths[1].ID(), uint64(si)).Load()
	}
	if th1 >= 0 {
		t.Errorf("thread 1's stripes sum to %d, want below 0: it removed more than it inserted", th1)
	}
	const want = n/2 + n/8
	if got, keys := m.Len(ths[0]), len(m.Keys(ths[0])); got != want || sum != want || keys != want {
		t.Fatalf("Len=%d, stripes sum to %d, %d keys present; want %d", got, sum, keys, want)
	}
}

// TestMapOpsNoAllocs: warm Insert, Contains and Remove on a map sized so
// that it never reaches the grow threshold allocate nothing — the nodes
// come from the arena. A doubling does allocate: its directory is
// ordinary garbage-collected memory, by design, once per doubling.
func TestMapOpsNoAllocs(t *testing.T) {
	const resident, churn = 512, 256 // at most 513 entries in 8×64 buckets: load ≈ 1
	th := newRT(1).RegisterThread()
	m := NewSharded(th, 8, 64, 0)
	for k := uint64(0); k < resident; k++ {
		m.Insert(th, k, k)
	}
	var i, failed uint64
	n := verify.Mallocs(100_000, 100_000, func() {
		k := resident + i%churn
		i++
		if !m.Insert(th, k, k) {
			failed++
		}
		if _, ok := m.Contains(th, k/2); !ok {
			failed++
		}
		if _, ok := m.Remove(th, k); !ok {
			failed++
		}
	})
	if n != 0 {
		t.Errorf("%d allocations over 100 k rounds of Insert/Contains/Remove, want 0", n)
	}
	if grows, _, _ := m.Stats(); failed != 0 || grows != 0 {
		t.Fatalf("failed=%d grows=%d: the map must neither fail nor grow", failed, grows)
	}
}

// TestWalkNoAllocs: Walk hands each live entry to its callback once,
// with its value, on a map that grew and then doubled again with its
// sentinels still unlinked. It links none of them, takes no arena node
// and allocates nothing.
func TestWalkNoAllocs(t *testing.T) {
	const n = 2000
	th := newRT(1).RegisterThread()
	m := NewSharded(th, 2, 1, 0)
	for k := uint64(0); k < n; k++ {
		m.Insert(th, k, k^0xabc)
	}
	for k := uint64(0); k < n; k += 4 {
		m.Remove(th, k)
	}
	m.Grow(th) // a doubling whose sentinels nobody links
	grows, sentinels, _ := m.Stats()
	carved := th.Runtime().Arena().Allocated()
	var wantSum uint64
	for k := uint64(0); k < n; k++ {
		if k%4 != 0 {
			wantSum += k ^ 0xabc
		}
	}
	seen := make(map[uint64]int)
	m.Walk(th, func(k, v uint64) {
		if v != k^0xabc {
			t.Fatalf("Walk: key %d with value %d, want %d", k, v, k^0xabc)
		}
		seen[k]++
	})
	for k := uint64(0); k < n; k++ {
		if want := int(min(k%4, 1)); seen[k] != want {
			t.Fatalf("Walk visited key %d %d times, want %d", k, seen[k], want)
		}
	}
	var count, sum uint64
	walk := func() {
		count, sum = 0, 0
		m.Walk(th, func(_, v uint64) {
			count++
			sum += v
		})
	}
	if a := verify.Mallocs(10, 100, walk); a != 0 {
		t.Errorf("%d allocations over 100 summing walks, want 0", a)
	}
	if count != uint64(m.Len(th)) || count != n-n/4 || sum != wantSum {
		t.Fatalf("walk counted %d entries summing %d, Len %d, want %d summing %d", count, sum, m.Len(th), n-n/4, wantSum)
	}
	if g, s, _ := m.Stats(); g != grows || s != sentinels || th.Runtime().Arena().Allocated() != carved {
		t.Fatalf("walks linked %d sentinels and carved %d nodes, want none", s-sentinels, th.Runtime().Arena().Allocated()-carved)
	}
	if grows < 2 {
		t.Fatalf("%d doublings, want the fill's and the forced one", grows)
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

// newMetricsRT is newRT with the metrics registry on.
func newMetricsRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18, Obs: obs.Config{Metrics: true}})
}

// TestCASRetriesZeroSingleThreaded: an uncontended map loses no
// linearization CAS, so cas_retries_total reads 0 on a fresh map and
// after single-threaded traffic.
func TestCASRetriesZeroSingleThreaded(t *testing.T) {
	rt := newMetricsRT(2)
	th := rt.RegisterThread()
	m := NewSharded(th, 4, 2, 0)
	reg := rt.Obs().Metrics()
	if n := reg.Snapshot().Get("cas_retries_total"); n != 0 {
		t.Fatalf("%d retries on a fresh map", n)
	}
	for k := uint64(0); k < 256; k++ {
		m.Insert(th, k, k)
		m.Remove(th, k)
	}
	if n := reg.Snapshot().Get("cas_retries_total"); n != 0 {
		t.Fatalf("%d retries single-threaded", n)
	}
}

// TestCASRetriesCountedByTheLosingThread hammers one hot key from
// several threads: cas_retries_total is the sum of the workers' own
// stripes, and the setup thread, which ran no operation of the storm,
// counts none. CAS failures need real interleaving, so the positive
// case is logged rather than asserted — on a single-CPU host the
// counters may stay zero.
func TestCASRetriesCountedByTheLosingThread(t *testing.T) {
	const threads = 4
	rt := newMetricsRT(threads + 1)
	setup := rt.RegisterThread()
	m := NewSharded(setup, 4, 4, 1<<20) // huge grow load: no grows, pure CAS traffic
	reg := rt.Obs().Metrics()
	var wg sync.WaitGroup
	var tids []int
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		tids = append(tids, th.ID())
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
	if n := reg.ThreadValue(setup.ID(), obs.CASRetry); n != 0 {
		t.Fatalf("setup thread counts %d retries; it ran no operation", n)
	}
	var total uint64
	for _, tid := range tids {
		total += reg.ThreadValue(tid, obs.CASRetry)
	}
	if got := reg.Snapshot().Get("cas_retries_total"); got != total {
		t.Fatalf("cas_retries_total=%d, worker stripes sum to %d", got, total)
	}
	t.Logf("hot-key retries after storm: %d", total)
}
