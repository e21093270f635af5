package kcas

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/word"
)

// TestUnhelpedCyclesNeverRetire: a descriptor no helper entered is
// closed by its owner and goes straight back on the free ring. 100 000
// pair and k-word cycles, with no peer reading, must never put a
// descriptor on the retired list, and kcas_helped_retires_total must
// stay 0 while kcas_recycles_total counts every cycle.
func TestUnhelpedCyclesNeverRetire(t *testing.T) {
	const cycles = 100_000
	e := newEnv(2)
	c := e.ctxs[0]
	var w [3]word.Word
	for i := range w {
		w[i].Store(val(uint64(i)))
	}
	for n := 0; n < cycles; n++ {
		cur := [3]uint64{w[0].Load(), w[1].Load(), w[2].Load()}
		next := func(i int) uint64 { return val(uint64(n)<<3 | uint64(i)) }
		switch n % 4 {
		case 0:
			runPair(c, &w[0], &w[1], cur[0], next(0), cur[1], next(1))
		case 2:
			// A pair that fails at its second word: the owner's D21
			// revert is all that undoes the announcement.
			runPair(c, &w[0], &w[1], cur[0], next(0), val(999), next(1))
		default:
			runK(c, []*word.Word{&w[0], &w[1], &w[2]}, cur[:], []uint64{next(0), next(1), next(2)})
		}
		if c.Retired() != 0 {
			t.Fatalf("cycle %d: %d descriptors retired with no helper", n, c.Retired())
		}
	}
	for i := range w {
		if v := w[i].Load(); word.IsDesc(v) {
			t.Fatalf("word %d holds descriptor %#x after the cycles", i, v)
		}
	}
	allFree(t, c)
	if got := e.reg.Value(obs.KCASHelpedRetire); got != 0 {
		t.Fatalf("%s = %d over unhelped cycles, want 0", obs.KCASHelpedRetire.Name(), got)
	}
	if got := e.reg.Value(obs.KCASRecycle); got != cycles {
		t.Fatalf("%s = %d, want %d", obs.KCASRecycle.Name(), got, cycles)
	}
}

// TestEnterAfterCloseFails: a helper whose line D36 passes only after
// the owner's close (the test writes the stale reference back into a
// word, as a helper would have read it before the close) must fail to
// enter and change nothing: not the word, not the descriptor, not the
// operation's target words, not the help counter. It must fail while the
// slot is free and again once the slot is re-armed, for pair, marked
// pair, k-word and RDCSS references alike.
func TestEnterAfterCloseFails(t *testing.T) {
	e := newEnv(2)
	owner, helper := e.ctxs[0], e.ctxs[1]
	var w1, w2, stale word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	pd, pref := owner.AllocPair()
	pd.Entries[0] = Entry{Ptr: &w1, Old: val(1), New: val(3)}
	pd.Entries[1] = Entry{Ptr: &w2, Old: val(2), New: val(4)}
	if owner.ExecutePair(pd, pref) != Success {
		t.Fatal("setup DCAS failed")
	}
	owner.Retire(pd, pref)
	kd, kref := owner.AllocK()
	kd.N = 2
	kd.Entries[0] = Entry{Ptr: &w1, Old: val(3), New: val(5)}
	kd.Entries[1] = Entry{Ptr: &w2, Old: val(4), New: val(6)}
	if ok, _ := owner.Execute(kd, kref); !ok {
		t.Fatal("setup k-word CAS failed")
	}
	owner.Retire(kd, kref)
	if owner.Retired() != 0 || pd.self.Load() != 0 || kd.self.Load() != 0 {
		t.Fatal("an unhelped descriptor was not closed")
	}

	helps := e.reg.Value(obs.KCASHelp)
	stales := []uint64{pref, word.MarkDesc(pref, 1), kref, rdcssRef(kref, 1)}
	try := func(when string) {
		t.Helper()
		for _, v := range stales {
			d := e.blocks.at(word.DescIndex(v))
			self, st := d.self.Load(), d.status.Load()
			stale.Store(v)
			helper.helpOnce(&stale, v)
			if got := stale.Load(); got != v {
				t.Fatalf("%s: helper changed the word holding %#x to %#x", when, v, got)
			}
			if d.self.Load() != self || d.status.Load() != st {
				t.Fatalf("%s: helper entered or changed closed descriptor %#x", when, v)
			}
		}
		if w1.Load() != val(5) || w2.Load() != val(6) {
			t.Fatalf("%s: helper changed a target word: %#x %#x", when, w1.Load(), w2.Load())
		}
		if got := e.reg.Value(obs.KCASHelp); got != helps {
			t.Fatalf("%s: %d helps counted for closed descriptors", when, got-helps)
		}
	}
	try("closed")

	// Re-arm both slots: cycle the FIFO ring until each comes back.
	rearmed := 0
	for rearmed < 2 {
		d, ref := owner.AllocPair()
		if i := word.DescIndex(ref); i == word.DescIndex(pref) || i == word.DescIndex(kref) {
			rearmed++
			if d.self.Load() != ref {
				t.Fatalf("re-armed slot holds %#x, want %#x", d.self.Load(), ref)
			}
			defer owner.Retire(d, ref)
			continue
		}
		owner.Retire(d, ref)
	}
	try("re-armed")
}

// TestEnteredDescriptorTakesScanPath: a descriptor a helper entered is
// not closed. Thread 1 helps the pair to completion while the owner is
// parked after its announcement; thread 2 is a second helper still
// inside (its hpd published), which accepts the entered mark. The
// owner's close fails, the descriptor is scrubbed and retired, scans
// keep it while thread 2's hpd covers it, and it is freed once that
// clears.
func TestEnteredDescriptorTakesScanPath(t *testing.T) {
	e := newEnv(3)
	owner := e.ctxs[0]
	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	d, ref := owner.AllocPair()
	d.Entries[0] = Entry{Ptr: &w1, Old: val(1), New: val(3)}
	d.Entries[1] = Entry{Ptr: &w2, Old: val(2), New: val(4)}
	idx := word.DescIndex(ref)
	owner.SetFault(injectFunc(func(p fault.Point, tid int) {
		if p != fault.KCASAfterPublish {
			return
		}
		if got := e.ctxs[1].Read(&w1); got != val(3) {
			t.Errorf("helper read %#x, want the pair's new value", got)
		}
		if d.self.Load() != entered(ref) {
			t.Errorf("helper completed the pair without entering it: self=%#x", d.self.Load())
		}
		e.descDom.Protect(2, testSlots.HPD, idx+1)
		if !d.enter(ref) {
			t.Error("a second helper could not enter an entered descriptor")
		}
	}))
	if r := owner.ExecutePair(d, ref); r != Success {
		t.Fatalf("helped DCAS reported %v", r)
	}
	owner.SetFault(nil)
	owner.Retire(d, ref)
	if got := e.reg.Value(obs.KCASHelpedRetire); got != 1 {
		t.Fatalf("%s = %d after one helped retire", obs.KCASHelpedRetire.Name(), got)
	}
	if owner.Retired() != 1 || d.self.Load() != entered(ref) {
		t.Fatalf("entered descriptor was closed: retired=%d self=%#x", owner.Retired(), d.self.Load())
	}
	for i := 0; i < 4; i++ {
		owner.scan()
	}
	if owner.Retired() != 1 || d.self.Load() == 0 {
		t.Fatal("descriptor freed while a helper's hpd covers it")
	}
	e.descDom.Clear(2, testSlots.HPD)
	owner.Flush()
	if d.self.Load() != 0 {
		t.Fatal("descriptor not freed after its hpd cleared")
	}
	allFree(t, owner)
}

// injectFunc adapts a function to fault.Injector.
type injectFunc func(p fault.Point, tid int)

func (f injectFunc) Fire(p fault.Point, tid int) { f(p, tid) }

// TestCloseRacesEntry races the owner's close against a peer's entry:
// the owner cycles pairs over two words while the peer Reads both,
// helping whatever it finds. Run it under -race. After both stop and the
// owner flushes, no word may hold a descriptor, free plus retired slots
// must account for the whole block, and helped retires must follow the
// helps: each needs a help that entered, and since the peer helps only
// the owner's descriptors, a help means at least one helped retire.
func TestCloseRacesEntry(t *testing.T) {
	const cycles = 20_000
	e := newEnv(2)
	owner, peer := e.ctxs[0], e.ctxs[1]
	var w1, w2 word.Word
	w1.Store(val(1))
	w2.Store(val(2))
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			for _, w := range []*word.Word{&w1, &w2} {
				if v := peer.Read(w); word.IsDesc(v) {
					t.Errorf("Read returned descriptor %#x", v)
					return
				}
			}
		}
	}()
	for n := 0; n < cycles; n++ {
		o1, o2 := owner.Read(&w1), owner.Read(&w2)
		if r := runPair(owner, &w1, &w2, o1, val(uint64(n)<<2|1), o2, val(uint64(n)<<2|2)); r != Success {
			t.Fatalf("cycle %d: uncontended-owner pair %v", n, r)
		}
	}
	done.Store(true)
	wg.Wait()
	owner.Flush()
	for i, w := range []*word.Word{&w1, &w2} {
		if v := w.Load(); word.IsDesc(v) {
			t.Fatalf("word %d holds descriptor %#x after the race", i+1, v)
		}
	}
	if got := owner.nFree + owner.Retired(); got != len(owner.block) {
		t.Fatalf("%d free + %d retired of a %d-slot block", owner.nFree, owner.Retired(), len(owner.block))
	}
	allFree(t, owner)
	helped, helps := e.reg.Value(obs.KCASHelpedRetire), e.reg.Value(obs.KCASHelp)
	if helped > helps || helps > 0 && helped == 0 {
		t.Fatalf("%d helped retires for %d helps", helped, helps)
	}
	t.Logf("%d cycles: %d helps, %d helped retires", cycles, helps, helped)
}
