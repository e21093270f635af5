package kcas

// Layer probes: one thread, one engine call per op, on a context with
// telemetry off, named for the per-layer metric each stands in for
// (bench/ reports kcas.k2_ns and kcas.k4_ns; kcas.pair_ns and
// kcas.desc_cycle_ns are these probes' names for the rest). Compare two
// commits on them with hypotheses/ab.sh, not by hand.

import (
	"sync"
	"testing"

	"repro/internal/hazard"
	"repro/internal/verify"
	"repro/internal/word"
)

// probeEnv builds the descriptor blocks and node hazard domain for
// threads contexts; a probe's context gets no registry, tracer or fault
// injector.
func probeEnv(threads int) (*Blocks, *hazard.Domain) {
	blocks, err := NewBlocks(hazard.New(threads, 1))
	if err != nil {
		panic(err)
	}
	return blocks, hazard.New(threads, 6+2*MaxEntries)
}

// soloCtx is thread 0's context in a one-thread probeEnv.
func soloCtx() *Ctx {
	blocks, nodeDom := probeEnv(1)
	return NewCtx(blocks, nodeDom, 0, testSlots)
}

// pairProbe returns one uncontended pair DCAS per call: AllocPair,
// ExecutePair over two standalone words, and the Retire that closes the
// unhelped descriptor.
func pairProbe() func() {
	c := soloCtx()
	var w1, w2 word.Word
	v1, v2, n1, n2 := val(0), val(1), val(2), val(3)
	w1.Store(v1)
	w2.Store(v2)
	return func() {
		if runPair(c, &w1, &w2, v1, n1, v2, n2) != Success {
			panic("kcas: uncontended pair DCAS failed")
		}
		v1, n1 = n1, v1
		v2, n2 = n2, v2
	}
}

// kProbe returns one uncontended k-word CAS per call over k standalone
// words: AllocK, Execute and Retire.
func kProbe(k int) func() {
	c := soloCtx()
	words := make([]*word.Word, k)
	olds, news := make([]uint64, k), make([]uint64, k)
	for i := range words {
		words[i] = &word.Word{}
		olds[i], news[i] = val(uint64(i)), val(uint64(k+i))
		words[i].Store(olds[i])
	}
	return func() {
		if ok, _ := runK(c, words, olds, news); !ok {
			panic("kcas: uncontended k-word CAS failed")
		}
		olds, news = news, olds
	}
}

// descCycleProbe returns one descriptor life per call with no operation
// in it: AllocPair, then the owner's close in Retire.
func descCycleProbe() func() {
	c := soloCtx()
	return func() {
		d, ref := c.AllocPair()
		c.Retire(d, ref)
	}
}

func runProbe(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkPair(b *testing.B)      { runProbe(b, pairProbe()) }
func BenchmarkK2(b *testing.B)        { runProbe(b, kProbe(2)) }
func BenchmarkK4(b *testing.B)        { runProbe(b, kProbe(4)) }
func BenchmarkDescCycle(b *testing.B) { runProbe(b, descCycleProbe()) }

// BenchmarkTwoPlainCAS is BenchmarkPair's floor: the same two words
// swapped by two plain CASes, with no descriptor.
func BenchmarkTwoPlainCAS(b *testing.B) {
	var w1, w2 word.Word
	v1, v2, n1, n2 := val(0), val(1), val(2), val(3)
	w1.Store(v1)
	w2.Store(v2)
	runProbe(b, func() {
		if !w1.CAS(v1, n1) || !w2.CAS(v2, n2) {
			panic("kcas: plain CAS failed")
		}
		v1, n1 = n1, v1
		v2, n2 = n2, v2
	})
}

// BenchmarkPairContended_4T: four threads run pair DCASes over the same
// two words, each reading them (and helping whatever it finds) first.
func BenchmarkPairContended_4T(b *testing.B) {
	const threads = 4
	blocks, nodeDom := probeEnv(threads)
	var w1, w2 word.Word
	w1.Store(val(0))
	w2.Store(val(1))
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := NewCtx(blocks, nodeDom, t, testSlots)
			for i := 0; i < perThread; i++ {
				o1, o2 := c.Read(&w1), c.Read(&w2)
				n := uint64(t)<<8 + uint64(i&0xff)
				runPair(c, &w1, &w2, o1, val(200+n), o2, val(300+n))
			}
			c.Flush()
		}(t)
	}
	wg.Wait()
}

// TestProbesNoAllocs: every probe runs without allocating once its
// thread's descriptor block exists.
func TestProbesNoAllocs(t *testing.T) {
	for _, p := range []struct {
		name string
		op   func()
	}{
		{"Pair", pairProbe()},
		{"K2", kProbe(2)},
		{"K4", kProbe(4)},
		{"DescCycle", descCycleProbe()},
	} {
		if n := verify.Mallocs(10_000, 100_000, p.op); n != 0 {
			t.Errorf("%s: %d allocations over 100000 calls, want 0", p.name, n)
		}
	}
}
