package kcas

import (
	"sync"
	"testing"

	"repro/internal/hazard"
	"repro/internal/obs"
	"repro/internal/word"
)

// testSlots mirrors core's slot assignment.
var testSlots = Slots{PairHPD: 0, KHPD: 1, RDCSSHPD: 2, PairMirror1: 6, PairMirror2: 7, KMirrorBase: 8}

// testEnv wires a descriptor store with per-thread contexts and a
// metrics registry, mimicking what core.Runtime does.
type testEnv struct {
	blocks  *Blocks
	nodeDom *hazard.Domain
	descDom *hazard.Domain
	reg     *obs.Registry
	ctxs    []*Ctx
}

func newEnv(threads int) *testEnv {
	e := &testEnv{
		nodeDom: hazard.New(threads, 8+2*MaxEntries),
		descDom: hazard.New(threads, 3),
		reg:     obs.NewRegistry(threads),
	}
	var err error
	if e.blocks, err = NewBlocks(e.descDom); err != nil {
		panic(err)
	}
	for i := 0; i < threads; i++ {
		c := NewCtx(e.blocks, e.nodeDom, i, testSlots)
		c.SetObs(e.reg, nil)
		e.ctxs = append(e.ctxs, c)
	}
	return e
}

// allFree fails the test unless every slot of c's block is back on its
// free ring: nothing live, nothing retired.
func allFree(t *testing.T, c *Ctx) {
	t.Helper()
	if c.Retired() != 0 || c.nFree != len(c.block) {
		t.Fatalf("descriptor slots leak: %d free, %d retired of %d", c.nFree, c.Retired(), len(c.block))
	}
}

// val builds a plain (node-reference) value safe for test words.
func val(i uint64) uint64 { return word.MakeNode(100+i, 0) }

func runPair(c *Ctx, w1, w2 *word.Word, o1, n1, o2, n2 uint64) Result {
	d, ref := c.AllocPair()
	e1, e2 := &d.Entries[0], &d.Entries[1]
	e1.Ptr, e1.Old, e1.New = w1, o1, n1
	e2.Ptr, e2.Old, e2.New = w2, o2, n2
	res := c.ExecutePair(d, ref)
	if res == FirstFailed {
		c.FreeDirect(d, ref)
	} else {
		c.Retire(d, ref)
	}
	return res
}

func TestPairSemanticsSequential(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	cases := []struct {
		name   string
		w1, w2 uint64 // initial word contents
		o1, o2 uint64 // expected olds
		want   Result
	}{
		{"both match", val(1), val(2), val(1), val(2), Success},
		{"first mismatch", val(1), val(2), val(9), val(2), FirstFailed},
		{"second mismatch", val(1), val(2), val(1), val(9), SecondFailed},
		{"both mismatch", val(1), val(2), val(8), val(9), FirstFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w1, w2 word.Word
			w1.Store(tc.w1)
			w2.Store(tc.w2)
			res := runPair(c, &w1, &w2, tc.o1, val(11), tc.o2, val(12))
			if res != tc.want {
				t.Fatalf("result %v, want %v", res, tc.want)
			}
			if tc.want == Success {
				if w1.Load() != val(11) || w2.Load() != val(12) {
					t.Fatalf("success must install new values; got %#x %#x", w1.Load(), w2.Load())
				}
			} else {
				if w1.Load() != tc.w1 || w2.Load() != tc.w2 {
					t.Fatalf("failure must leave words unchanged; got %#x %#x", w1.Load(), w2.Load())
				}
			}
		})
	}
}

func TestPairWithNilValues(t *testing.T) {
	// The queue's enqueue DCASes tail.next from nil; exercise old = 0.
	e := newEnv(1)
	c := e.ctxs[0]
	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(word.Nil)
	if res := runPair(c, &w1, &w2, val(1), val(3), word.Nil, val(4)); res != Success {
		t.Fatalf("result %v", res)
	}
	if w2.Load() != val(4) {
		t.Fatal("nil old2 not replaced")
	}
}

func TestReadSeesPlainValues(t *testing.T) {
	e := newEnv(1)
	var w word.Word
	w.Store(val(42))
	if got := e.ctxs[0].Read(&w); got != val(42) {
		t.Fatalf("Read = %#x", got)
	}
}

func TestPairDescriptorRecycling(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	var w1, w2 word.Word
	for i := uint64(0); i < 1000; i++ {
		w1.Store(val(1))
		w2.Store(val(2))
		if res := runPair(c, &w1, &w2, val(1), val(3), val(2), val(4)); res != Success {
			t.Fatalf("iteration %d: %v", i, res)
		}
	}
	c.Flush()
	allFree(t, c)
}

func TestResultAgreementDecided(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	d, ref := c.AllocPair()
	e1, e2 := &d.Entries[0], &d.Entries[1]
	e1.Ptr, e1.Old, e1.New = &w1, val(1), val(3)
	e2.Ptr, e2.Old, e2.New = &w2, val(2), val(4)
	if res := c.ExecutePair(d, ref); res != Success {
		t.Fatalf("%v", res)
	}
	if !d.Decided() {
		t.Fatal("status must be decided after ExecutePair returns")
	}
	c.Retire(d, ref)
}

// transition records one side of a successful pair operation for the
// history checker below.
type transition struct {
	old, new uint64
}

// TestPairConcurrentHistory runs many concurrent DCASes over a small set
// of words and validates the outcome like a linearizability check:
// because every installed value is unique, the successful transitions on
// each word must chain from the word's initial value to its final value,
// consuming every recorded success exactly once. Lost or duplicated
// DCAS effects (e.g. a helper applying an operation twice — the ABA
// scenario of Lemma 3) would break the chain.
func TestPairConcurrentHistory(t *testing.T) {
	const (
		threads = 8
		wordsN  = 4
		opsPer  = 3000
	)
	e := newEnv(threads)
	words := make([]word.Word, wordsN)
	for i := range words {
		words[i].Store(val(uint64(1000 + i)))
	}
	type rec struct {
		w1, w2 int
		t1, t2 transition
	}
	results := make([][]rec, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := e.ctxs[tid]
			rng := uint64(tid)*2654435761 + 1
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for op := 0; op < opsPer; op++ {
				i := int(next() % wordsN)
				j := int(next() % wordsN)
				if i == j {
					j = (j + 1) % wordsN
				}
				o1 := c.Read(&words[i])
				o2 := c.Read(&words[j])
				// Unique new values: tid/op tagged.
				n1 := val(uint64(1<<20) + uint64(tid)<<24 + uint64(op)<<4)
				n2 := val(uint64(1<<21) + uint64(tid)<<24 + uint64(op)<<4 + 1)
				if runPair(c, &words[i], &words[j], o1, n1, o2, n2) == Success {
					results[tid] = append(results[tid], rec{i, j, transition{o1, n1}, transition{o2, n2}})
				}
			}
			c.Flush()
		}(tid)
	}
	wg.Wait()

	// Build per-word transition sets.
	perWord := make([]map[uint64]uint64, wordsN) // old -> new
	for i := range perWord {
		perWord[i] = make(map[uint64]uint64)
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
		for _, r := range rs {
			for _, side := range []struct {
				w int
				t transition
			}{{r.w1, r.t1}, {r.w2, r.t2}} {
				if _, dup := perWord[side.w][side.t.old]; dup {
					t.Fatalf("word %d: two successful DCASes consumed old value %#x", side.w, side.t.old)
				}
				perWord[side.w][side.t.old] = side.t.new
			}
		}
	}
	if total == 0 {
		t.Fatal("no DCAS succeeded; the test exercised nothing")
	}
	// Chain-check each word.
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
			t.Fatalf("word %d: transition chain ends at %#x but word holds %#x", i, cur, words[i].Load())
		}
		if len(perWord[i]) != 0 {
			t.Fatalf("word %d: %d successful transitions not on the chain (lost updates)", i, len(perWord[i]))
		}
	}

	// Reclamation: after flushing every context, no descriptor may
	// remain live.
	for _, c := range e.ctxs {
		c.Flush()
		if c.Retired() > 0 {
			t.Fatalf("thread %d: %d descriptors unreclaimable after quiescence", c.TID(), c.Retired())
		}
	}
}

// TestPairContendedSameWords hammers one word pair from all threads so
// helping and the marked-descriptor arbitration of Lemma 3 get dense
// coverage; the accounting mirrors the history test.
func TestPairContendedSameWords(t *testing.T) {
	const threads = 8
	const opsPer = 5000
	e := newEnv(threads)
	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	var mu sync.Mutex
	trans1 := map[uint64]uint64{}
	trans2 := map[uint64]uint64{}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := e.ctxs[tid]
			for op := 0; op < opsPer; op++ {
				o1 := c.Read(&w1)
				o2 := c.Read(&w2)
				n1 := val(uint64(3<<24) + uint64(tid)<<16 + uint64(op)<<1)
				n2 := val(uint64(5<<24) + uint64(tid)<<16 + uint64(op)<<1)
				if runPair(c, &w1, &w2, o1, n1, o2, n2) == Success {
					mu.Lock()
					if _, dup := trans1[o1]; dup {
						t.Errorf("old1 %#x consumed twice", o1)
					}
					if _, dup := trans2[o2]; dup {
						t.Errorf("old2 %#x consumed twice", o2)
					}
					trans1[o1] = n1
					trans2[o2] = n2
					mu.Unlock()
				}
			}
			c.Flush()
		}(tid)
	}
	wg.Wait()
	// Chains must consume everything.
	for name, m := range map[string]struct {
		trans map[uint64]uint64
		w     *word.Word
		init  uint64
	}{
		"w1": {trans1, &w1, val(1)},
		"w2": {trans2, &w2, val(2)},
	} {
		cur := m.init
		for {
			next, ok := m.trans[cur]
			if !ok {
				break
			}
			delete(m.trans, cur)
			cur = next
		}
		if cur != m.w.Load() {
			t.Fatalf("%s: chain ends at %#x, word holds %#x", name, cur, m.w.Load())
		}
		if len(m.trans) != 0 {
			t.Fatalf("%s: %d dangling transitions", name, len(m.trans))
		}
	}
	t.Logf("contended run: helps=%d strayCleanups=%d lateP2=%d",
		e.reg.Value(obs.KCASHelp), e.reg.Value(obs.KCASStrayCleanup), e.reg.Value(obs.KCASLateP2))
}
