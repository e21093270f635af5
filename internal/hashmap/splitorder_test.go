package hashmap

import (
	"math/bits"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/msqueue"
	"repro/internal/obs"
	"repro/internal/verify"
	"repro/internal/word"
	"repro/internal/xrand"
)

// checkSplitOrder verifies the structure of a quiescent map: every
// bucket list strictly ascending in (order key, sentinel first), and
// every linked sentinel carrying its bucket's order key and reachable
// from its nearest linked ancestor's anchor.
func checkSplitOrder(t *testing.T, rt *core.Runtime, th *core.Thread, m *Map) {
	t.Helper()
	for si := range m.shards {
		d := m.shards[si].dir.Load()
		for j := range d.heads {
			if rep, _ := verify.List(rt.Arena(), &d.heads[j]); !rep.Ok() {
				t.Fatalf("shard %d head %d: %s", si, j, rep.Err())
			}
		}
		for b := len(d.heads); b < len(d.slots); b++ {
			ref := d.slots[b].Load()
			if ref == 0 {
				continue
			}
			want := bits.Reverse64(uint64(b)<<m.shardBits | uint64(si))
			if n := th.Node(ref); n.Key != want || n.Aux != auxSentinel {
				t.Fatalf("shard %d slot %d: node (%#x,%d), want sentinel (%#x,0)", si, b, n.Key, n.Aux, want)
			}
			from := &d.heads[b&(len(d.heads)-1)]
			for p := b &^ (1 << (bits.Len(uint(b)) - 1)); p >= len(d.heads); p &^= 1 << (bits.Len(uint(p)) - 1) {
				if pref := d.slots[p].Load(); pref != 0 {
					from = &th.Node(pref).Next
					break
				}
			}
			cur := from.Load()
			for cur != word.Nil && cur != ref {
				cur = word.ListUnmarked(th.Node(cur).Next.Load())
			}
			if cur != ref {
				t.Fatalf("shard %d slot %d: sentinel not reachable from its parent's anchor", si, b)
			}
		}
	}
}

func TestUnhashInvertsHash(t *testing.T) {
	rng := xrand.New(11)
	for i := 0; i < 100000; i++ {
		k := rng.Uint64()
		if i < 1000 {
			k = uint64(i) // small keys, and small hashes below
		}
		if unhash(hash(k)) != k || hash(unhash(k)) != k {
			t.Fatalf("unhash∘hash(%#x) = %#x, hash∘unhash = %#x", k, unhash(hash(k)), hash(unhash(k)))
		}
	}
}

// TestSplitOrderInvariant runs seeded insert/remove/Grow/RebalanceStep
// traffic from two threads (disjoint key parities, so each thread's
// model is exact) and then checks the structure and the contents: the
// lists are in split order, the sentinels sit where the directory says,
// Keys returns exactly the model's key set and Len its size. Some of
// the keys hash to a bare bucket index, so their order key ties with a
// sentinel's and only Aux orders the pair.
func TestSplitOrderInvariant(t *testing.T) {
	const workers = 2
	const span = 3000
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	m := NewSharded(setup, 2, 2, 3)

	model := make([]map[uint64]uint64, workers+1)
	model[workers] = map[uint64]uint64{}
	for b := uint64(0); b < 64; b++ { // hash(key) = b: bucket b>>1 of shard b&1 at every size
		k := unhash(b)
		if !m.Insert(setup, k, ^k) {
			t.Fatalf("insert of tie key %#x failed", k)
		}
		model[workers][k] = ^k
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		model[w] = map[uint64]uint64{}
		wg.Add(1)
		go func(w int, th *core.Thread) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 5)
			own := model[w]
			for i := 0; i < 40000; i++ {
				k := uint64(rng.Intn(span))*workers + uint64(w) + 1<<32
				switch p := rng.Intn(1000); {
				case p < 550:
					_, had := own[k]
					if m.Insert(th, k, k*7) == had {
						t.Errorf("Insert(%d) with key present=%v", k, had)
						return
					}
					own[k] = k * 7
				case p < 990:
					v, ok := m.Remove(th, k)
					if want, had := own[k]; ok != had || v != want {
						t.Errorf("Remove(%d) = %d,%v, model %d,%v", k, v, ok, want, had)
						return
					}
					delete(own, k)
				case p < 993 && m.Buckets() < 1<<12:
					m.Grow(th)
				default:
					m.RebalanceStep(th)
				}
			}
			th.FlushMemory()
		}(w, rt.RegisterThread())
	}
	wg.Wait()

	check := func(when string) {
		checkSplitOrder(t, rt, setup, m)
		var want []uint64
		for _, mm := range model {
			for k, v := range mm {
				want = append(want, k)
				if got, ok := m.Contains(setup, k); !ok || got != v {
					t.Fatalf("%s: Contains(%#x) = %d,%v, want %d", when, k, got, ok, v)
				}
			}
		}
		got := m.Keys(setup)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) || m.Len(setup) != len(want) {
			t.Fatalf("%s: Keys has %d entries, Len %d, model %d", when, len(got), m.Len(setup), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Keys[%d] = %#x, model %#x", when, i, got[i], want[i])
			}
		}
	}
	check("after the traffic")
	m.Quiesce(setup)
	for si := range m.shards {
		d := m.shards[si].dir.Load()
		for b := len(d.heads); b < len(d.slots); b++ {
			if d.slots[b].Load() == 0 {
				t.Fatalf("shard %d slot %d empty after Quiesce", si, b)
			}
		}
	}
	if m.RebalanceStep(setup) {
		t.Fatal("RebalanceStep found work after Quiesce")
	}
	check("after Quiesce")
	grows, sentinels, _ := m.Stats()
	if grows == 0 || sentinels == 0 {
		t.Fatalf("grows=%d sentinels=%d: the traffic never grew the map", grows, sentinels)
	}
}

// keyWhere returns the first key at or after from whose hash satisfies
// ok.
func keyWhere(from uint64, ok func(h uint64) bool) uint64 {
	for k := from; ; k++ {
		if ok(hash(k)) {
			return k
		}
	}
}

// TestComposedOpsLinkSentinelsInMove replaces the routed-insert test of
// the migrating map: a Move and a 2-key TransferN into (and out of)
// buckets whose sentinels nobody has linked yet succeed, publish exactly
// one descriptor each — the in-move link is a plain CAS, not a captured
// entry — and leave the sentinels linked.
func TestComposedOpsLinkSentinelsInMove(t *testing.T) {
	rt := core.NewRuntime(core.Config{MaxThreads: 1, ArenaCapacity: 1 << 18,
		Obs: obs.Config{Metrics: true}})
	th := rt.RegisterThread()
	published := func() uint64 { return rt.Obs().Metrics().Snapshot().Get("kcas_publish_total") }
	// One shard, two initial buckets, eight after two doublings: buckets
	// 2..7 have no sentinel, and 6 and 7 have a parent (2, 3) without one.
	unlinked := func(m *Map) *directory {
		m.Grow(th)
		m.Grow(th)
		if _, s, _ := m.Stats(); m.Buckets() != 8 || s != 0 {
			t.Fatalf("buckets=%d sentinels=%d after two doublings of a 1×2 map", m.Buckets(), s)
		}
		return m.shards[0].dir.Load()
	}
	bucketIs := func(bs ...uint64) func(uint64) bool {
		return func(h uint64) bool {
			for _, b := range bs {
				if h&7 == b {
					return true
				}
			}
			return false
		}
	}

	dst := NewSharded(th, 1, 2, 1<<30)
	dd := unlinked(dst)
	q := msqueue.New(th)
	q.Enqueue(th, 55)
	key := keyWhere(1, bucketIs(6))
	p0 := published()
	if v, ok := th.Move(q, dst, 0, key); !ok || v != 55 {
		t.Fatalf("Move into an unlinked bucket: %d,%v", v, ok)
	}
	if n := published() - p0; n != 1 {
		t.Fatalf("Move published %d descriptors, want 1", n)
	}
	if _, s, _ := dst.Stats(); s != 2 || dd.slots[6].Load() == 0 || dd.slots[2].Load() == 0 {
		t.Fatalf("sentinels=%d slot6=%#x slot2=%#x: the move must leave bucket 6 and its parent linked",
			s, dd.slots[6].Load(), dd.slots[2].Load())
	}
	if v, ok := dst.Contains(th, key); !ok || v != 55 {
		t.Fatalf("moved entry not observable: %d,%v", v, ok)
	}

	// TransferN: the two source keys sit in different initial lists, as
	// do the two target keys, so no in-move link can touch a captured
	// word and one descriptor must do.
	src := NewSharded(th, 1, 2, 1<<30)
	k1, k2 := keyWhere(1000, bucketIs(4)), keyWhere(1000, bucketIs(7))
	src.Insert(th, k1, 11)
	src.Insert(th, k2, 22)
	sd := unlinked(src)
	t1, t2 := keyWhere(2000, bucketIs(4)), keyWhere(2000, bucketIs(3, 5))
	if src.SameChain(k1, k2) || dst.SameChain(t1, t2) {
		t.Fatal("keys chosen for distinct buckets share one")
	}
	out := make([]uint64, 2)
	p0 = published()
	if !th.TransferN(src, dst, []uint64{k1, k2}, []uint64{t1, t2}, out) || out[0] != 11 || out[1] != 22 {
		t.Fatalf("TransferN across unlinked buckets failed: out=%v", out)
	}
	if n := published() - p0; n != 1 {
		t.Fatalf("TransferN published %d descriptors, want 1", n)
	}
	if sd.slots[4].Load() == 0 || sd.slots[7].Load() == 0 || sd.slots[3].Load() == 0 {
		t.Fatal("source buckets 4, 7 and 7's parent 3 must be linked by the removes")
	}
	if dd.slots[4].Load() == 0 || dd.slots[hash(t2)&7].Load() == 0 {
		t.Fatal("target buckets must be linked by the inserts")
	}
	if src.Len(th) != 0 || dst.Len(th) != 3 {
		t.Fatalf("len src=%d dst=%d, want 0 and 3", src.Len(th), dst.Len(th))
	}
	for _, m := range []*Map{src, dst} {
		checkSplitOrder(t, rt, th, m)
	}
}

// TestStalledGrowerWedgesNobody parks, then kills, a thread between
// publishing a doubled directory and linking its first sentinel. Every
// kind of operation a peer can run on that shard — Insert, Contains,
// Remove, Move in and out — must complete while the grower is gone:
// peers link the sentinels they need.
func TestStalledGrowerWedgesNobody(t *testing.T) {
	for _, kill := range []bool{false, true} {
		plan := fault.NewPlan()
		rt := core.NewRuntime(core.Config{MaxThreads: 3, ArenaCapacity: 1 << 18, Fault: plan})
		setup := rt.RegisterThread()
		m := NewSharded(setup, 1, 2, 2) // one shard, doubles past 4 entries
		other := NewSharded(setup, 1, 2, 1<<30)
		victim := rt.RegisterThread()
		if trig := fault.Nth(1).OnThread(victim.ID()); kill {
			plan.Kill(fault.MapMidGrow, trig)
		} else {
			plan.Park(fault.MapMidGrow, trig)
		}
		done := make(chan struct{})
		returned := false
		go func() {
			defer close(done) // runs even on Goexit
			for k := uint64(1); k <= 5; k++ {
				m.Insert(victim, k, k)
			}
			returned = true
		}()
		for i := 0; plan.Parked() == 0 && plan.Kills() == 0; i++ {
			if i > 5000 {
				t.Fatal("victim never reached the grow window")
			}
			time.Sleep(time.Millisecond)
		}
		if _, s, _ := m.Stats(); m.Buckets() != 4 || s != 0 {
			t.Fatalf("kill=%v: buckets=%d sentinels=%d, want a doubled directory with nothing linked", kill, m.Buckets(), s)
		}
		for k := uint64(100); k < 160; k++ {
			if !m.Insert(setup, k, k) {
				t.Fatalf("kill=%v: Insert(%d) failed beside the stalled grower", kill, k)
			}
			if v, ok := m.Contains(setup, k); !ok || v != k {
				t.Fatalf("kill=%v: Contains(%d) = %d,%v", kill, k, v, ok)
			}
			if v, ok := setup.Move(m, other, k, k); !ok || v != k {
				t.Fatalf("kill=%v: Move out (%d) = %d,%v", kill, k, v, ok)
			}
			if v, ok := setup.Move(other, m, k, k+1000); !ok || v != k {
				t.Fatalf("kill=%v: Move back (%d) = %d,%v", kill, k, v, ok)
			}
			if k&1 == 0 {
				if v, ok := m.Remove(setup, k+1000); !ok || v != k {
					t.Fatalf("kill=%v: Remove(%d) = %d,%v", kill, k+1000, v, ok)
				}
			}
		}
		for k := uint64(1); k <= 5; k++ { // the victim's fifth insert took effect before it stalled
			if v, ok := m.Contains(setup, k); !ok || v != k {
				t.Fatalf("kill=%v: victim's key %d = %d,%v", kill, k, v, ok)
			}
		}
		plan.Release()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("victim neither returned nor died")
		}
		if returned == kill {
			t.Fatalf("kill=%v but victim returned=%v", kill, returned)
		}
		m.Quiesce(setup)
		checkSplitOrder(t, rt, setup, m)
		if m.Len(setup) != 35 {
			t.Fatalf("kill=%v: Len=%d, want 5 + 30", kill, m.Len(setup))
		}
	}
}
