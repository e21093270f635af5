package kcas

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

func runK(c *Ctx, words []*word.Word, olds, news []uint64) (bool, int) {
	d, ref := c.AllocK()
	d.N = len(words)
	for i := range words {
		d.Entries[i] = Entry{Ptr: words[i], Old: olds[i], New: news[i]}
	}
	ok, failed := c.Execute(d, ref)
	c.Retire(d, ref)
	return ok, failed
}

func TestKSequentialSemantics(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	for n := 1; n <= MaxEntries; n++ {
		words := make([]*word.Word, n)
		olds := make([]uint64, n)
		news := make([]uint64, n)
		for i := 0; i < n; i++ {
			words[i] = &word.Word{}
			words[i].Store(val(uint64(i)))
			olds[i] = val(uint64(i))
			news[i] = val(uint64(100 + i))
		}
		ok, _ := runK(c, words, olds, news)
		if !ok {
			t.Fatalf("n=%d: matching k-word CAS must succeed", n)
		}
		for i := 0; i < n; i++ {
			if words[i].Load() != news[i] {
				t.Fatalf("n=%d: word %d not updated", n, i)
			}
		}
	}
}

func TestKFailureReportsSlotAndChangesNothing(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	for bad := 0; bad < 4; bad++ {
		words := make([]*word.Word, 4)
		olds := make([]uint64, 4)
		news := make([]uint64, 4)
		for i := 0; i < 4; i++ {
			words[i] = &word.Word{}
			words[i].Store(val(uint64(i)))
			olds[i] = val(uint64(i))
			news[i] = val(uint64(50 + i))
		}
		olds[bad] = val(999) // mismatch at slot `bad`
		ok, failed := runK(c, words, olds, news)
		if ok {
			t.Fatalf("bad=%d: must fail", bad)
		}
		if failed != bad {
			t.Fatalf("bad=%d: reported slot %d", bad, failed)
		}
		for i := 0; i < 4; i++ {
			if words[i].Load() != val(uint64(i)) {
				t.Fatalf("bad=%d: word %d changed on failure", bad, i)
			}
		}
	}
}

func TestKDuplicateWordPanics(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	w := &word.Word{}
	w.Store(val(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate words must panic")
		}
	}()
	runK(c, []*word.Word{w, w}, []uint64{val(1), val(1)}, []uint64{val(2), val(3)})
}

// TestKConcurrentChains mirrors the pair history test: concurrent
// 3-word operations over a word pool; successful transitions must chain.
func TestKConcurrentChains(t *testing.T) {
	const threads = 8
	const wordsN = 6
	const opsPer = 1500
	e := newEnv(threads)
	words := make([]word.Word, wordsN)
	for i := range words {
		words[i].Store(val(uint64(1000 + i)))
	}
	type rec struct {
		w    [3]int
		olds [3]uint64
		news [3]uint64
	}
	results := make([][]rec, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := e.ctxs[tid]
			rng := uint64(tid)*0x9e3779b97f4a7c15 + 99
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for op := 0; op < opsPer; op++ {
				// Pick three distinct words.
				a := int(next() % wordsN)
				b := (a + 1 + int(next()%(wordsN-1))) % wordsN
				cIdx := (b + 1 + int(next()%(wordsN-2))) % wordsN
				if cIdx == a {
					cIdx = (cIdx + 1) % wordsN
					if cIdx == b {
						cIdx = (cIdx + 1) % wordsN
					}
				}
				idx := [3]int{a, b, cIdx}
				var olds, news [3]uint64
				for k := 0; k < 3; k++ {
					olds[k] = c.Read(&words[idx[k]])
					news[k] = val(1<<22 | uint64(tid)<<26 | uint64(op)<<4 | uint64(k))
				}
				ok, _ := runK(c,
					[]*word.Word{&words[idx[0]], &words[idx[1]], &words[idx[2]]},
					olds[:], news[:])
				if ok {
					results[tid] = append(results[tid], rec{idx, olds, news})
				}
			}
			c.Flush()
		}(tid)
	}
	wg.Wait()

	perWord := make([]map[uint64]uint64, wordsN)
	for i := range perWord {
		perWord[i] = map[uint64]uint64{}
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
		for _, r := range rs {
			for k := 0; k < 3; k++ {
				if _, dup := perWord[r.w[k]][r.olds[k]]; dup {
					t.Fatalf("word %d: old %#x consumed twice", r.w[k], r.olds[k])
				}
				perWord[r.w[k]][r.olds[k]] = r.news[k]
			}
		}
	}
	if total == 0 {
		t.Fatal("no k-word CAS succeeded")
	}
	for i := range words {
		cur := val(uint64(1000 + i))
		for {
			next, ok := perWord[i][cur]
			if !ok {
				break
			}
			delete(perWord[i], cur)
			cur = next
		}
		if cur != e.ctxs[0].Read(&words[i]) {
			t.Fatalf("word %d: chain ends at %#x, word holds %#x", i, cur, words[i].Load())
		}
		if len(perWord[i]) != 0 {
			t.Fatalf("word %d: %d dangling transitions", i, len(perWord[i]))
		}
	}
	t.Logf("successes=%d helps=%d", total, e.reg.Value(obs.KCASHelp))
}

// TestKOverlappingPairsNoDeadlock: two word sets overlapping in one
// word, hammered in opposite orders — the address-ordered phase 1 plus
// helping must guarantee progress.
func TestKOverlappingPairsNoDeadlock(t *testing.T) {
	const threads = 4
	const opsPer = 4000
	e := newEnv(threads)
	var a, b, c word.Word
	a.Store(val(1))
	b.Store(val(2))
	c.Store(val(3))
	var wg sync.WaitGroup
	var successes [threads]int
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			cx := e.ctxs[tid]
			var w1, w2 *word.Word
			if tid%2 == 0 {
				w1, w2 = &a, &b
			} else {
				w1, w2 = &b, &c
			}
			for op := 0; op < opsPer; op++ {
				o1 := cx.Read(w1)
				o2 := cx.Read(w2)
				n1 := val(2<<22 | uint64(tid)<<26 | uint64(op)<<4)
				n2 := val(3<<22 | uint64(tid)<<26 | uint64(op)<<4)
				if ok, _ := runK(cx, []*word.Word{w1, w2}, []uint64{o1, o2}, []uint64{n1, n2}); ok {
					successes[tid]++
				}
			}
			cx.Flush()
		}(tid)
	}
	wg.Wait()
	for tid, s := range successes {
		if s == 0 {
			t.Fatalf("thread %d starved (0/%d successes)", tid, opsPer)
		}
	}
}

func TestKDescriptorRecycling(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	var w1, w2 word.Word
	for i := 0; i < 500; i++ {
		w1.Store(val(1))
		w2.Store(val(2))
		ok, _ := runK(c, []*word.Word{&w1, &w2}, []uint64{val(1), val(2)}, []uint64{val(3), val(4)})
		if !ok {
			t.Fatal("sequential k-word CAS failed")
		}
	}
	c.Flush()
	allFree(t, c)
}

// TestCrossKindHelping: a general operation that finds a pair
// descriptor in its word must help it through the unified engine (the
// split engines needed a registered foreign-help hook for this; the
// unified one dispatches on the reference kind internally).
func TestCrossKindHelping(t *testing.T) {
	e := newEnv(2)
	c0, c1 := e.ctxs[0], e.ctxs[1]
	var w1, w2, w3 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	w3.Store(val(3))
	// Announce a pair operation in w1/w2 but stop before helping it to
	// completion: install the unmarked reference in w1 by hand-running
	// only the announce step.
	d, ref := c0.AllocPair()
	e1, e2 := &d.Entries[0], &d.Entries[1]
	e1.Ptr, e1.Old, e1.New = &w1, val(1), val(4)
	e2.Ptr, e2.Old, e2.New = &w2, val(2), val(5)
	if !w1.CAS(val(1), ref) {
		t.Fatal("announce failed")
	}
	// A k-word CAS targeting w1 must help the pair to completion and
	// then succeed against its post-help value.
	ok, _ := runK(c1, []*word.Word{&w1, &w3}, []uint64{val(4), val(3)}, []uint64{val(6), val(7)})
	if !ok {
		t.Fatal("k-word CAS expecting the pair's new value must succeed after helping")
	}
	if got := c1.Read(&w2); got != val(5) {
		t.Fatalf("pair not helped to completion: w2=%#x", got)
	}
	if d.status.Load() != statusSuccess {
		t.Fatal("pair status not decided by helper")
	}
	c0.Retire(d, ref)
	c0.Flush()
	c1.Flush()
}

// hpdProbe records, each time thread tid fires fault.KCASAfterPublish
// (which a helper does between its phase 1 and its decision CAS), what
// its hpd slot covers and what its first two mirrors publish.
type hpdProbe struct {
	e    *testEnv
	tid  int
	seen [][3]uint64
}

func (p *hpdProbe) Fire(pt fault.Point, tid int) {
	if pt == fault.KCASAfterPublish && tid == p.tid {
		m := testSlots.MirrorBase
		p.seen = append(p.seen, [3]uint64{p.e.descDom.Get(tid, testSlots.HPD),
			p.e.nodeDom.Get(tid, m), p.e.nodeDom.Get(tid, m+1)})
	}
}

// plantK leaves a k-word descriptor of c over ws as its phase 1 leaves
// it after acquiring every word: each holds the full reference, the
// status is undecided. Entry i carries hazard pointer hp+i.
func plantK(t *testing.T, c *Ctx, ws []*word.Word, news []uint64, hp uint64) (*Desc, uint64) {
	t.Helper()
	d, ref := c.AllocK()
	d.N = len(ws)
	for i, w := range ws {
		d.Entries[i] = Entry{Ptr: w, Old: w.Load(), New: news[i], HP: hp + uint64(i)}
		d.order[i] = uint8(i) // ws is in ascending address order
		if !w.CAS(d.Entries[i].Old, ref) {
			t.Fatal("plant failed")
		}
	}
	return d, ref
}

// TestHelperProtectsOneDescriptorAtATime: thread 1 Reads word A, which
// holds k-word descriptor d2 (entries A, B; A acquired), while B holds
// a blocker of each kind a k-word phase 1 can meet: a k-word descriptor
// d3 over B and C, a pair over B and C announced in B, or d3's RDCSS
// sub-reference in B before its promotion. The blocker's owner and d2's
// owner are parked, so thread 1 does all the work. It must help one
// descriptor at a time:
//
//   - every phase 1 it finishes ends with its hpd slot covering that
//     descriptor and its mirrors holding that descriptor's hazard
//     pointers — d3's, then d2's (a pair runs no phase 1);
//   - it helps the blocker only after leaving d2: its help entries go
//     d2, blocker, d2, because finishing d2 takes a fresh entry once the
//     caller re-reads A. The RDCSS row promotes d3's sub-reference first,
//     which records no help entry, and then meets d3 in full.
//
// A helper that helps the blocker from inside d2's phase 1 finishes d2
// without re-entering it, from a slot the nested help overwrote.
func TestHelperProtectsOneDescriptorAtATime(t *testing.T) {
	blockers := []struct {
		name  string
		plant func(t *testing.T, c *Ctx, b, c2 *word.Word) (*Desc, uint64)
		runs  bool   // the blocker runs a phase 1 in the helper
		helps string // help entries: 2 = d2, b = blocker
	}{
		{"k-word", func(t *testing.T, c *Ctx, b, c2 *word.Word) (*Desc, uint64) {
			return plantK(t, c, []*word.Word{b, c2}, []uint64{val(22), val(33)}, 43)
		}, true, "2b2"},
		{"pair", func(t *testing.T, c *Ctx, b, c2 *word.Word) (*Desc, uint64) {
			d, ref := c.AllocPair()
			d.Entries[0] = Entry{Ptr: b, Old: val(2), New: val(22), HP: 43}
			d.Entries[1] = Entry{Ptr: c2, Old: val(3), New: val(33), HP: 44}
			if !b.CAS(val(2), ref) { // D10: announced, not yet helped
				t.Fatal("plant failed")
			}
			return d, ref
		}, false, "2b2"},
		{"RDCSS", func(t *testing.T, c *Ctx, b, c2 *word.Word) (*Desc, uint64) {
			d, ref := c.AllocK()
			d.N = 2
			d.Entries[0] = Entry{Ptr: b, Old: val(2), New: val(22), HP: 43}
			d.Entries[1] = Entry{Ptr: c2, Old: val(3), New: val(33), HP: 44}
			d.order[0], d.order[1] = 0, 1
			if !b.CAS(val(2), rdcssRef(ref, 0)) { // installed, not promoted
				t.Fatal("plant failed")
			}
			return d, ref
		}, true, "22b2"},
	}
	for _, bl := range blockers {
		t.Run(bl.name, func(t *testing.T) {
			e := newEnv(3)
			var w [3]word.Word // A, B, C in ascending address order
			for i := range w {
				w[i].Store(val(uint64(i + 1)))
			}
			a, b, c := &w[0], &w[1], &w[2]
			// The blocker first: it takes B's current value as its old one.
			d3, ref3 := bl.plant(t, e.ctxs[2], b, c)
			d2, ref2 := e.ctxs[0].AllocK()
			d2.N = 2
			d2.Entries[0] = Entry{Ptr: a, Old: val(1), New: val(11), HP: 41}
			d2.Entries[1] = Entry{Ptr: b, Old: val(2), New: val(12), HP: 42}
			d2.order[0], d2.order[1] = 0, 1
			if !a.CAS(val(1), ref2) {
				t.Fatal("plant failed")
			}

			probe := &hpdProbe{e: e, tid: 1}
			trc := obs.NewTracer(3, 64)
			h := e.ctxs[1]
			h.SetFault(probe)
			h.SetObs(e.reg, trc)
			got := h.Read(a)
			h.SetFault(nil)
			h.SetObs(e.reg, nil)

			var want [][3]uint64
			if bl.runs {
				want = append(want, [3]uint64{word.DescIndex(ref3) + 1, 43, 44})
			}
			want = append(want, [3]uint64{word.DescIndex(ref2) + 1, 41, 42})
			if fmt.Sprint(probe.seen) != fmt.Sprint(want) {
				t.Fatalf("hpd and mirrors at each phase-1 end = %v, want %v", probe.seen, want)
			}
			helps := ""
			for _, ev := range trc.Drain() {
				if ev.Kind != obs.EvHelp {
					continue
				}
				switch word.DescIndex(ev.Ref) {
				case word.DescIndex(ref2):
					helps += "2"
				case word.DescIndex(ref3):
					helps += "b"
				default:
					t.Fatalf("help entry for unknown descriptor %#x", ev.Ref)
				}
			}
			if helps != bl.helps {
				t.Fatalf("help entries %q, want %q (2 = d2, b = the blocker)", helps, bl.helps)
			}
			if v := e.descDom.Get(1, testSlots.HPD); v != 0 {
				t.Fatalf("helper's hpd slot still covers %d", v)
			}
			for i := 0; i < MaxEntries; i++ {
				if v := e.nodeDom.Get(1, testSlots.MirrorBase+i); v != 0 {
					t.Fatalf("helper's mirror %d still publishes %d", i, v)
				}
			}
			// The blocker committed; d2 then found B changed and failed at
			// entry 1.
			if d3.status.Load() != statusSuccess || d2.status.Load() != statusFailed(1) {
				t.Fatalf("statuses blocker=%#x d2=%#x", d3.status.Load(), d2.status.Load())
			}
			if got != val(1) || b.Load() != val(22) || c.Load() != val(33) {
				t.Fatalf("words A=%#x B=%#x C=%#x, want d2 failed and the blocker committed", got, b.Load(), c.Load())
			}
			e.ctxs[0].Retire(d2, ref2)
			e.ctxs[2].Retire(d3, ref3)
			for _, c := range []*Ctx{e.ctxs[0], e.ctxs[2]} {
				c.Flush()
				allFree(t, c)
			}
		})
	}
}
