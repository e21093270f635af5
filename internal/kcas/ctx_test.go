package kcas

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hazard"
	"repro/internal/obs"
	"repro/internal/pad"
	"repro/internal/word"
)

// TestBlocksFitDescriptorIndex: a runtime's blocks must fit the 20-bit
// slot index with the owner's tid in its high bits — 512 threads of one
// hpd slot each do, 513 do not — and every slot a thread allocates names
// that thread.
func TestBlocksFitDescriptorIndex(t *testing.T) {
	if _, err := NewBlocks(hazard.New(512, 1)); err != nil {
		t.Fatalf("512 threads: %v", err)
	}
	if _, err := NewBlocks(hazard.New(513, 1)); err == nil {
		t.Fatal("513 threads' blocks accepted past the descriptor index")
	}
	e := newEnv(3)
	for tid, c := range e.ctxs {
		_, ref := c.AllocPair()
		if got := e.blocks.owner(word.DescIndex(ref)); got != int32(tid) {
			t.Fatalf("thread %d's descriptor names owner %d", tid, got)
		}
	}
}

// TestCtxOwnsItsLines: a Ctx's free-ring cursor is written by its owner
// on every alloc and retire; sized to whole lines, the allocator puts
// the context on a line boundary and two threads' contexts never share
// a line. Pad the struct if a field change breaks this.
func TestCtxOwnsItsLines(t *testing.T) {
	if size := unsafe.Sizeof(Ctx{}); size%pad.CacheLineSize != 0 {
		t.Fatalf("Ctx is %d bytes, not a whole number of %d-byte lines", size, pad.CacheLineSize)
	}
}

// TestBlockBoundUnderPinsAndStrays is the reclamation bound at its
// worst: every other thread's descriptor hazard slot pins one of thread
// 0's most recently retired descriptors in rotation, and each pinning
// "helper" enters its descriptor (so the owner's close fails and the
// descriptor takes the scan path) and installs a stray after the retire
// — a late ptr2 mark on the pair path, RDCSS residue on the general one
// — which outlives its pin.
// Every refill then finds each unpinned retired descriptor dirty, so its
// first scan frees nothing and only the second one does. Over 100 000
// alloc → execute → retire cycles the thread must never reach the
// invariant panic, every slot index must lie in thread 0's block, no
// slot may be reused while an hpd slot covers it or a word still
// references its last use, and free plus retired slots must account for
// the whole block.
func TestBlockBoundUnderPinsAndStrays(t *testing.T) {
	const threads, cycles = 4, 100_000
	e := newEnv(threads)
	c := e.ctxs[0]
	size := blockSize(threads)
	mask := uint64(1)<<e.blocks.shift - 1
	// Each block slot owns three target words, so a stray stays where
	// it was planted, untouched by later cycles, until a scan scrubs it.
	words := make([][3]word.Word, size)
	for s := range words {
		for i := range words[s] {
			words[s][i].Store(val(uint64(i)))
		}
	}
	pins := threads - 1
	pinned := make([]uint64, pins) // the reference each helper slot covers
	secondScans := 0
	for n := 0; n < cycles; n++ {
		if c.nFree == 0 && c.block != nil && !anyFreeable(e, c) {
			secondScans++
		}
		pair := n%2 == 0
		var d *Desc
		var ref uint64
		if pair {
			d, ref = c.AllocPair()
		} else {
			d, ref = c.AllocK()
			d.N = 3
		}
		idx := word.DescIndex(ref)
		if idx>>e.blocks.shift != 0 || idx&mask >= uint64(size) || len(c.block) != size {
			t.Fatalf("cycle %d: slot index %#x outside thread 0's block of %d", n, idx, size)
		}
		ws := &words[idx&mask]
		for i := range ws {
			if v := ws[i].Load(); word.IsDesc(v) {
				t.Fatalf("cycle %d: slot %d reused while its word %d still holds %#x", n, idx&mask, i, v)
			}
		}
		for i := 0; i < d.N; i++ {
			d.Entries[i] = Entry{Ptr: &ws[i], Old: ws[i].Load(), New: val(uint64(n)<<2 | uint64(i))}
		}
		if pair {
			if r := c.ExecutePair(d, ref); r != Success {
				t.Fatalf("cycle %d: pair %v", n, r)
			}
		} else if ok, _ := c.Execute(d, ref); !ok {
			t.Fatalf("cycle %d: k-word CAS failed", n)
		}
		helper := 1 + n%pins
		e.descDom.Protect(helper, 0, idx+1)
		if !d.enter(ref) {
			t.Fatalf("cycle %d: helper could not enter a live descriptor", n)
		}
		pinned[n%pins] = ref
		c.Retire(d, ref)
		if pair {
			e2 := &d.Entries[1]
			e2.Ptr.Store(e2.Old)                     // ptr2 back at old2 (ABA) ...
			e2.Ptr.Store(word.MarkDesc(ref, helper)) // ... and the late D14 install
		} else {
			i := n % 3
			d.Entries[i].Ptr.Store(rdcssRef(ref, i))
		}
		for _, p := range pinned {
			if p != 0 && e.blocks.at(word.DescIndex(p)).self.Load() != entered(p) {
				t.Fatalf("cycle %d: descriptor %#x freed while an hpd slot covers it", n, p)
			}
		}
		if got := c.nFree + c.Retired(); got != size {
			t.Fatalf("cycle %d: %d free + %d retired of a %d-slot block", n, c.nFree, c.Retired(), size)
		}
	}
	if secondScans == 0 {
		t.Fatal("no refill needed its second scan; the test missed the bound's worst case")
	}
	t.Logf("%d refills needed the second scan", secondScans)
}

// anyFreeable reports whether a scan of c's retired list would free a
// descriptor now: one that no hpd slot covers and no word references.
func anyFreeable(e *testEnv, c *Ctx) bool {
	snap := e.descDom.Snapshot(nil)
	for _, rd := range c.retired {
		if !hazard.Protected(snap, word.DescIndex(rd.ref)+1) && !c.residue(rd) {
			return true
		}
	}
	return false
}

// TestRefillPanicsPastTheBound: a block smaller than the bound, every
// retired descriptor entered and pinned (four threads, one pin each),
// must fail with the invariant panic naming the bound.
func TestRefillPanicsPastTheBound(t *testing.T) {
	e := newEnv(4)
	e.blocks.size = 4
	c := e.ctxs[0]
	var w [8]word.Word
	for i := 0; i < 4; i++ {
		w[2*i].Store(val(1))
		w[2*i+1].Store(val(2))
		d, ref := c.AllocPair()
		d.Entries[0] = Entry{Ptr: &w[2*i], Old: val(1), New: val(3)}
		d.Entries[1] = Entry{Ptr: &w[2*i+1], Old: val(2), New: val(4)}
		if c.ExecutePair(d, ref) != Success {
			t.Fatal("setup DCAS failed")
		}
		e.descDom.Protect(i, 0, word.DescIndex(ref)+1)
		d.enter(ref)
		c.Retire(d, ref)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("alloc past the bound returned a descriptor")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "reclamation bound") {
			t.Fatalf("panic %q does not name the broken bound", msg)
		}
	}()
	c.AllocPair()
}

// TestPairAndKShareFreeRing: a thread alternating pair and general
// operations must recycle through one ring — the whole block is free
// again after a flush.
func TestPairAndKShareFreeRing(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	var w1, w2, w3 word.Word
	for i := 0; i < 500; i++ {
		w1.Store(val(1))
		w2.Store(val(2))
		w3.Store(val(3))
		if res := runPair(c, &w1, &w2, val(1), val(4), val(2), val(5)); res != Success {
			t.Fatalf("pair %d: %v", i, res)
		}
		w1.Store(val(1))
		w2.Store(val(2))
		ok, _ := runK(c,
			[]*word.Word{&w1, &w2, &w3},
			[]uint64{val(1), val(2), val(3)},
			[]uint64{val(6), val(7), val(8)})
		if !ok {
			t.Fatalf("k-word %d failed", i)
		}
	}
	c.Flush()
	allFree(t, c)
}

// TestRetiredDescriptorsHeldWhileProtected: a descriptor a helper
// entered and still covers with its hpd slot must survive scans.
func TestRetiredDescriptorsHeldWhileProtected(t *testing.T) {
	e := newEnv(2)
	c := e.ctxs[0]

	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	d, ref := c.AllocPair()
	e1, e2 := &d.Entries[0], &d.Entries[1]
	e1.Ptr, e1.Old, e1.New = &w1, val(1), val(3)
	e2.Ptr, e2.Old, e2.New = &w2, val(2), val(4)
	if c.ExecutePair(d, ref) != Success {
		t.Fatal("setup DCAS failed")
	}
	// Thread 1 protects the descriptor slot and enters it (as a helper
	// would).
	e.descDom.Protect(1, 0, word.DescIndex(ref)+1)
	d.enter(ref)
	c.Retire(d, ref)
	for i := 0; i < 4; i++ {
		c.scan()
	}
	if d.self.Load() == 0 {
		t.Fatal("descriptor freed while hpd-protected")
	}
	// Release and confirm reclamation.
	e.descDom.Clear(1, 0)
	c.Flush()
	if d.self.Load() != 0 {
		t.Fatal("descriptor not freed after protection cleared")
	}
}

// TestRetireScrubsStrayReference: a marked descriptor reference left in
// ptr2 (the §7 late-ABA stray) must be scrubbed by Retire so the word
// never reaches readers after the descriptor is recycled.
func TestRetireScrubsStrayReference(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]

	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	d, ref := c.AllocPair()
	e1, e2 := &d.Entries[0], &d.Entries[1]
	e1.Ptr, e1.Old, e1.New = &w1, val(1), val(3)
	e2.Ptr, e2.Old, e2.New = &w2, val(2), val(4)
	if c.ExecutePair(d, ref) != Success {
		t.Fatal("setup DCAS failed")
	}
	// Simulate a late helper's ABA install: the helper entered, ptr2
	// went back to old2, and the stalled helper re-installed its marked
	// descriptor.
	d.enter(ref)
	w2.Store(val(2))
	stray := word.MarkDesc(ref, 0)
	w2.Store(stray)

	c.Retire(d, ref)
	if got := w2.Load(); got != val(2) {
		t.Fatalf("stray not scrubbed: w2=%#x", got)
	}
	c.Flush()
	if d.self.Load() != 0 {
		t.Fatal("descriptor not reclaimed after scrub")
	}
}

// TestRetireScrubsKResidue: the general protocol's retire-time scrub
// must clean both residue forms — a stranded full reference and a
// stranded RDCSS sub-reference — before the descriptor recycles.
func TestRetireScrubsKResidue(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]
	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	d, ref := c.AllocK()
	d.N = 2
	d.Entries[0] = Entry{Ptr: &w1, Old: val(1), New: val(3)}
	d.Entries[1] = Entry{Ptr: &w2, Old: val(2), New: val(4)}
	if ok, _ := c.Execute(d, ref); !ok {
		t.Fatal("setup k-word CAS failed")
	}
	// A helper entered and stranded a full reference in w1 and an RDCSS
	// sub-reference in w2.
	d.enter(ref)
	w1.Store(ref)
	w2.Store(rdcssRef(ref, 1))
	c.Retire(d, ref)
	if got := w1.Load(); got != val(3) {
		t.Fatalf("full-reference residue not released: w1=%#x", got)
	}
	if got := w2.Load(); got != val(2) {
		t.Fatalf("RDCSS residue not reverted: w2=%#x", got)
	}
	c.Flush()
	if d.self.Load() != 0 {
		t.Fatal("descriptor not reclaimed after scrub")
	}
}

// TestReadCleansResidueAfterDecision: a reader encountering a decided
// descriptor's residue must restore the word and return a plain value.
func TestReadCleansResidueAfterDecision(t *testing.T) {
	e := newEnv(1)
	c := e.ctxs[0]

	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	d, ref := c.AllocPair()
	e1, e2 := &d.Entries[0], &d.Entries[1]
	e1.Ptr, e1.Old, e1.New = &w1, val(1), val(3)
	e2.Ptr, e2.Old, e2.New = &w2, val(2), val(4)
	if c.ExecutePair(d, ref) != Success {
		t.Fatal("setup DCAS failed")
	}
	// Plant a stray marked ref (live descriptor, decided): the reader
	// must help through it via lines D4–D6 and end with a plain value.
	w2.Store(val(2))
	w2.Store(word.MarkDesc(ref, 0))
	if got := c.Read(&w2); got != val(2) {
		t.Fatalf("Read returned %#x, want scrubbed old value", got)
	}
	if e.reg.Value(obs.KCASStrayCleanup) == 0 {
		t.Fatal("stray cleanup not counted")
	}
	c.Retire(d, ref)
	c.Flush()
}
