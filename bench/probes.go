package main

import (
	"runtime"
	"strconv"

	"repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/kvwire"
	"repro/internal/plainqueue"
	"repro/internal/plainstack"
	"repro/internal/word"
	"repro/internal/xrand"
)

// A probe is a single-thread tight loop over one layer's public
// function, at a fixed iteration count: the layer's uncontended cost,
// with nothing else of the program running. Probes run once per traced
// run, after the workload.

// probeRounds is how many times a probe's loop is timed; the median
// round is reported.
const probeRounds = 3

// timeIt runs fn iters times per round, after a short untimed round,
// and returns the median round's ns and heap allocations per call.
func timeIt(iters int, fn func()) (ns, allocs float64) {
	for i := 0; i < iters/8+1; i++ {
		fn()
	}
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < probeRounds; r++ {
		runtime.ReadMemStats(&m0)
		t0 := now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := now() - t0
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d)/float64(iters))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(nss), median(als)
}

// runProbes fills every probe metric. scale shrinks the iteration
// counts (quick mode).
func runProbes(m metrics, seed uint64, scale int) {
	n := func(iters int) int { return max(iters/scale, 16) }
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()

	// --- substrate
	ref := th.AllocNode()
	ns, _ := timeIt(n(2_000_000), func() {
		th.ProtectNode(core.SlotIns0, ref)
		th.ClearNode(core.SlotIns0)
	})
	m.set("hazard.protect_clear_ns", ns)
	ns, _ = timeIt(n(1_000_000), func() { th.RetireNode(th.AllocNode()) })
	m.set("mm.alloc_retire_ns", ns)

	// --- kcas: uncontended k-word CAS over standalone words
	var words [4]word.Word
	cur := [4]uint64{}
	for i := range words {
		cur[i] = word.MakeNode(uint64(100+i), 0)
		words[i].Store(cur[i])
	}
	entries := make([]core.KCASEntry, 4)
	kcas := func(k int) float64 {
		ns, _ := timeIt(n(500_000), func() {
			for i := 0; i < k; i++ {
				next := cur[i] ^ word.MakeNode(1<<10, 0) // flip between two node refs
				entries[i] = core.KCASEntry{W: &words[i], Old: cur[i], New: next}
				cur[i] = next
			}
			if ok, _ := th.ExecuteKCAS(entries[:k]); !ok {
				panic("bench: uncontended ExecuteKCAS failed")
			}
		})
		return ns
	}
	m.set("kcas.k2_ns", kcas(2))
	m.set("kcas.k4_ns", kcas(4))

	// --- containers, move-ready against plain (the paper's "original
	// operations keep their performance")
	const resident = 64
	q, s := repro.NewQueue(th), repro.NewStack(th)
	pq, ps := plainqueue.New(th), plainstack.New(th)
	for i := uint64(1); i <= resident; i++ {
		q.Enqueue(th, i)
		s.Push(th, i)
		pq.Enqueue(th, i)
		ps.Push(th, i)
	}
	qPair, _ := timeIt(n(1_000_000), func() { q.Enqueue(th, 7); q.Dequeue(th) })
	pqPair, _ := timeIt(n(1_000_000), func() { pq.Enqueue(th, 7); pq.Dequeue(th) })
	sPair, _ := timeIt(n(1_000_000), func() { s.Push(th, 7); s.Pop(th) })
	psPair, _ := timeIt(n(1_000_000), func() { ps.Push(th, 7); ps.Pop(th) })
	m.set("plainqueue.pair_ns", pqPair)
	m.set("plainstack.pair_ns", psPair)
	m.set("msqueue.moveready_overhead_ratio", ratio(qPair, pqPair))
	m.set("tstack.moveready_overhead_ratio", ratio(sPair, psPair))

	l := repro.NewList(th)
	for k := uint64(0); k < resident; k++ {
		l.Insert(th, 2*k, k)
	}
	var lk uint64
	ns, _ = timeIt(n(500_000), func() {
		k := 2*(lk%resident) + 1 // an absent odd key among 64 even ones
		lk++
		l.Insert(th, k, k)
		l.Remove(th, k)
	})
	m.set("harrislist.insert_remove_ns", ns)

	// --- core: composed operations, one thread
	moveNS, moveAllocs := timeIt(n(500_000), func() {
		repro.Move(th, q, s, 0, 0)
		repro.Move(th, s, q, 0, 0)
	})
	m.set("core.move_solo_ns", moveNS/2)
	m.set("core.move_solo_allocs", moveAllocs/2)

	bq, bs := blocking.NewQueue(th), blocking.NewStack(th)
	for i := uint64(1); i <= resident; i++ {
		bq.Enqueue(th, i)
		bs.Push(th, i)
	}
	ns, _ = timeIt(n(1_000_000), func() {
		blocking.Move(th, bq, bs, 0, 0)
		blocking.Move(th, bs, bq, 0, 0)
	})
	m.set("blocking.move_solo_ns", ns/2)
	m.set("core.move_vs_blocking_ratio", ratio(moveNS, ns))

	const keyed = 1024
	maps := [2]*repro.HashMap{
		repro.NewShardedHashMap(th, 8, 512, 0),
		repro.NewShardedHashMap(th, 8, 512, 0),
	}
	side := make([]uint8, keyed)
	for k := uint64(0); k < keyed; k++ {
		maps[0].Insert(th, k, tokenOf(k))
	}
	var mk uint64
	ns, _ = timeIt(n(500_000), func() {
		k := mk % keyed
		mk++
		from := side[k]
		if _, ok := repro.Move(th, maps[from], maps[1-from], k, k); !ok {
			panic("bench: solo keyed Move failed")
		}
		side[k] = 1 - from
	})
	m.set("core.movekeyed_solo_ns", ns)

	const drainN = 16
	q2 := repro.NewQueue(th)
	ns, _ = timeIt(n(50_000), func() {
		if len(repro.DrainN(th, q, q2, 0, 0, drainN))+len(repro.DrainN(th, q2, q, 0, 0, drainN)) != 2*drainN {
			panic("bench: solo DrainN moved fewer elements than asked")
		}
	})
	m.set("core.drain_ns_per_elem", ns/(2*drainN))

	// --- batch
	const batchSize = 16
	mb := repro.NewMoveBatchSize(th, batchSize)
	flush := func(src repro.Remover, dst repro.Inserter) {
		for i := 0; i < batchSize; i++ {
			mb.Add(src, dst, 0, 0)
		}
		mb.Flush()
	}
	ns, _ = timeIt(n(50_000), func() { flush(q, s); flush(s, q) })
	m.set("batch.move_ns_b16", ns/(2*batchSize))
	m.set("batch.amortization_ratio", ratio(ns/(2*batchSize), moveNS/2))

	// --- hashmap: explicit grow of a quiescent 64k-entry map. The grow
	// load is out of reach, so only Grow seals tables.
	const growEntries = 1 << 16
	entriesN := max(growEntries/scale, 1<<10)
	gm := repro.NewShardedHashMap(th, 8, 64, 1<<30)
	for k := 0; k < entriesN; k++ {
		gm.Insert(th, uint64(k), uint64(k))
	}
	var growNS []float64
	for r := 0; r < probeRounds; r++ {
		t0 := now()
		gm.Grow(th)
		gm.Quiesce(th)
		growNS = append(growNS, float64(now()-t0)/float64(entriesN))
	}
	m.set("hashmap.grow_ns_per_entry", median(growNS))

	// --- kvwire, on the svc_pipe request stream
	const lines = 4096
	loc := make([]uint8, pipeKeys)
	rng := xrand.New(seed)
	for k := range loc {
		loc[k] = uint8(rng.Intn(svcTenants))
	}
	gen := newPipeGen(0, seed, loc)
	reqs := make([]kvwire.Request, lines)
	reqLines := make([]string, lines)
	respLines := make([]string, lines)
	for i := range reqs {
		gen.next(&reqs[i], i%pipeWindow == 0)
		// next reuses the key slices of the request it is handed.
		reqs[i].Keys = append([]uint64(nil), reqs[i].Keys...)
		reqs[i].TKeys = append([]uint64(nil), reqs[i].TKeys...)
		line := reqs[i].Append(nil)
		reqLines[i] = string(line[:len(line)-1])
		respLines[i] = sampleResponse(reqs[i])
	}
	var i int
	ns, allocs := timeIt(n(500_000), func() {
		if _, err := kvwire.ParseRequest(reqLines[i%lines], svcTenants); err != nil {
			panic("bench: generated request does not parse: " + err.Error())
		}
		i++
	})
	m.set("kvwire.parse_ns", ns)
	m.set("kvwire.parse_allocs", allocs)
	var buf []byte
	ns, _ = timeIt(n(1_000_000), func() {
		buf = reqs[i%lines].Append(buf[:0])
		i++
	})
	m.set("kvwire.append_ns", ns)
	ns, _ = timeIt(n(500_000), func() {
		if _, err := kvwire.ParseResponse(respLines[i%lines], true); err != nil {
			panic("bench: sample response does not parse: " + err.Error())
		}
		i++
	})
	m.set("kvwire.parse_response_ns", ns)
}

// sampleResponse is the OK response the server would give req when the
// operation succeeds in full.
func sampleResponse(req kvwire.Request) string {
	vals := make([]uint64, 0, pipeDrainN)
	if req.Op == kvwire.OpDrain {
		for i := 0; i < req.N; i++ {
			vals = append(vals, uint64(req.Tenant)<<32|uint64(i+1))
		}
	}
	for _, k := range req.Keys {
		vals = append(vals, tokenOf(k))
	}
	out := []byte("OK ")
	for i, v := range vals {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(out, v, 10)
	}
	return string(out)
}
