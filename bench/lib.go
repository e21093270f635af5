package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/xrand"
)

// loadThreads is the number of load threads (lib_*) and connections
// (svc_*) of every workload; fixed by the run protocol.
const loadThreads = 2

// latencySampleMask selects the 1-in-128 operations of a lib_* workload
// whose latency is timed in an untraced run. The same operations are
// where a load thread looks at the clock to see whether its round is over.
const latencySampleMask = 127

// violations collects what a workload's oracle found wrong. Any entry
// fails the run; only the first few are kept.
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.list) < 10 {
		v.list = append(v.list, fmt.Sprintf(format, args...))
	}
}

// libBase is what the three in-process workloads share: the runtime
// under test, one registered thread per load thread, their booking and,
// in a traced run, their spans and the counters read around the traced
// rounds.
type libBase struct {
	plan  plan
	seed  uint64
	rt    *repro.Runtime
	setup *repro.Thread
	ths   []*repro.Thread
	ws    []*workerStats
	ts    *traceSet
	viol  violations
	bar   spinBarrier

	// Thread CPU clocks at the start and the end of the timed phase, so
	// that what the process spent outside its load threads can be told.
	cpu0, cpu1 [loadThreads]time.Duration

	mem0, mem1 runtime.MemStats
	obs0, obs1 repro.ObsSnapshot
}

func (b *libBase) init(p plan, seed uint64) {
	b.plan, b.seed, b.ws = p, seed, newWorkerStats(loadThreads)
	b.bar.parties = loadThreads
	if p.trace {
		b.ts = newTraceSet(loadThreads)
	}
}

// newRuntime builds a runtime with one set-up thread and the load
// threads. The registry is on only in a traced pass, so the end-to-end
// numbers are taken with every telemetry hook disabled.
func (b *libBase) newRuntime() {
	b.rt = repro.NewRuntime(repro.Config{
		MaxThreads: loadThreads + 1,
		Obs:        repro.ObsConfig{Metrics: b.plan.trace},
	})
	b.setup = b.rt.RegisterThread()
	b.ths = b.ths[:0]
	for i := 0; i < loadThreads; i++ {
		b.ths = append(b.ths, b.rt.RegisterThread())
	}
}

func (b *libBase) stats() []*workerStats { return b.ws }
func (b *libBase) spans() *traceSet      { return b.ts }
func (b *libBase) pid() int              { return 0 }
func (b *libBase) teardown()             { b.rt, b.setup, b.ths = nil, nil, nil }
func (b *libBase) diagnose() string      { return "" }
func (b *libBase) valid(*clock) bool     { return true }

// rounds are the timed rounds of the pass.
func (b *libBase) rounds(c *clock) []round { return timedRounds(b.ws, 1) }

// backgroundNS is the CPU per operation the process spent outside its
// load threads during the timed phase: the collector's workers, mostly.
func (b *libBase) backgroundNS(c *clock) float64 {
	other := c.cpuEnd - c.cpuTimed
	for id := range b.cpu0 {
		other -= b.cpu1[id] - b.cpu0[id]
	}
	attempted, _ := totals(b.ws)
	return ratio(float64(max(other, 0)), float64(attempted))
}

// drive runs body as the load threads, each pinned to its processor,
// and joins them. The threads walk the clock themselves (libRounds).
func (b *libBase) drive(c *clock, body func(r *libRounds)) {
	var wg sync.WaitGroup
	for id := 0; id < loadThreads; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pin(id)()
			r := &libRounds{b: b, c: c, id: id, ws: b.ws[id], tt: b.ts.thread(id)}
			body(r)
			r.close()
		}()
	}
	wg.Wait()
}

// libRounds is one load thread's walk through the rounds of a pass. A
// round is: meet the other load threads, work for the round's length. Thread 0 leads: it advances the clock before the
// threads meet, so all of them see a round in the same phase.
type libRounds struct {
	b     *libBase
	c     *clock
	id    int
	ws    *workerStats
	tt    *threadTrace
	s     *slice        // the open round's slice
	idle  int64         // when the previous round's work ended
	end   int64         // when the open round's work is over
	cpu   time.Duration // thread CPU clock when the work began
	timed bool          // the open round is in the timed phase
}

// begin opens the next round and reports whether there is one.
func (r *libRounds) begin() bool {
	// The sync span is everything between two rounds' work: waiting for
	// the other threads and, on lib_map_grow, building the next cycle.
	tSync := r.idle
	if tSync == 0 {
		tSync = now()
	}
	if r.id == 0 {
		was := r.c.phase.Load()
		if r.c.tick() == phaseTimed && was == phaseWarm {
			r.b.timedBegins()
		}
	}
	if !r.b.bar.wait(r.c) || r.c.stopped() {
		return false
	}
	timed := r.c.phase.Load() == phaseTimed
	if timed && !r.timed {
		r.b.cpu0[r.id] = threadCPU()
	}
	r.timed = timed
	if r.tt != nil {
		r.tt.nextRound(timed)
		r.tt.rec(opSync, true, tSync, now())
	}
	r.s = r.ws.open(timed)
	r.cpu, r.end = threadCPU(), r.s.t0+int64(r.c.plan.roundLen)
	return true
}

// over reports, at time t, whether the open round's work is done.
func (r *libRounds) over(t int64) bool { return t >= r.end || r.c.stopped() }

// finish books the open round.
func (r *libRounds) finish(ops uint64) {
	r.idle = now()
	r.ws.book(r.s, ops, 0, r.idle-r.s.t0, threadCPU()-r.cpu)
}

// close ends the walk.
func (r *libRounds) close() {
	r.b.cpu1[r.id] = threadCPU()
	if !r.timed {
		r.b.cpu0[r.id] = r.b.cpu1[r.id]
	}
	if r.id == 0 {
		r.c.end()
		r.b.timedEnds()
	}
}

// timedBegins and timedEnds are called by the leading load thread around
// the timed phase: a traced pass reads the Go heap and the runtime's
// registry there.
func (b *libBase) timedBegins() {
	if b.plan.trace {
		runtime.ReadMemStats(&b.mem0)
		if b.rt != nil {
			b.obs0 = b.rt.Obs().Metrics().Snapshot()
		}
	}
}

func (b *libBase) timedEnds() {
	if b.plan.trace {
		runtime.ReadMemStats(&b.mem1)
		if b.rt != nil {
			b.obs1 = b.rt.Obs().Metrics().Snapshot()
		}
	}
}

// commonLayers fills the per-layer metrics every lib_* workload reads
// the same way: registry counter deltas, Go heap deltas and the span
// coverage.
func (b *libBase) commonLayers(m metrics, c *clock, d repro.ObsSnapshot) {
	attempted, _ := totals(b.ws)
	ops := float64(attempted)
	pub := float64(d.Get("kcas_publish_total"))
	m.set("kcas.publish_per_op", ratio(pub, ops))
	m.set("kcas.helps_per_kop", ratio(1e3*float64(d.Get("kcas_helps_total")), ops))
	m.set("kcas.abort_ratio", ratio(float64(d.Get("kcas_aborts_total")), pub))
	m.set("kcas.descs_carved_total", float64(d.Get("kcas_descs_carved_total")))
	m.set("kcas.cas_retries_per_kop", ratio(1e3*float64(d.Get("cas_retries_total")), ops))
	m.set("hashmap.grows_total", float64(d.Get("map_grows_total")))
	m.set("hashmap.migrated_total", float64(d.Get("map_migrated_total")))
	m.set("go.alloc_bytes_per_op", ratio(float64(b.mem1.TotalAlloc-b.mem0.TotalAlloc), ops))
	m.set("go.gc_cycles", float64(b.mem1.NumGC-b.mem0.NumGC))
	m.set("bench.span_coverage_ratio", b.ts.coverage(c))

	if s, ok := b.ts.merged(opMove); s.Count > 0 {
		m.set("core.move_ns_mean", s.MeanNS())
		m.set("core.move_ns_p99", float64(s.Percentile(0.99)))
		m.set("core.move_ok_ratio", ratio(float64(ok), float64(s.Count)))
	}
	if s, ok := b.ts.merged(opTransfer); s.Count > 0 {
		m.set("core.transfer_ns_mean", s.MeanNS())
		m.set("core.transfer_ok_ratio", ratio(float64(ok), float64(s.Count)))
	}
	b.ts.setMean(m, "msqueue.enqueue_ns_mean", opEnqueue)
	b.ts.setMean(m, "msqueue.dequeue_ns_mean", opDequeue)
	b.ts.setMean(m, "tstack.push_ns_mean", opPush)
	b.ts.setMean(m, "tstack.pop_ns_mean", opPop)
	if s, _ := b.ts.merged(opGet); s.Count > 0 {
		m.set("hashmap.get_ns_mean", s.MeanNS())
		m.set("hashmap.get_ns_p99", float64(s.Percentile(0.99)))
	}
	b.ts.setMean(m, "hashmap.insert_ns_mean", opInsert)
	b.ts.setMean(m, "hashmap.remove_ns_mean", opRemove)
}

func (b *libBase) layerMetrics(m metrics, c *clock) {
	b.commonLayers(m, c, b.obs1.Sub(b.obs0))
}

// ---------------------------------------------------------------------
// lib_qs_move

const (
	qsPrefill      = 512 // elements in the queue and in the stack
	localWorkIters = 200 // LCG steps between operations, ~250 ns
)

// qsMove is one shared Michael–Scott queue and one Treiber stack under
// the paper's "all operations" mix (Fig. 2): half moves, half plain
// inserts and removes, with local work between operations. Every value
// is a unique token. Within each operation class a thread alternates
// direction (q→s then s→q, enqueue then dequeue, push then pop), so
// the populations stay at their prefill and no operation meets an empty
// container: the mix is exact and every operation succeeds.
type qsMove struct {
	libBase
	q    *repro.Queue
	s    *repro.Stack
	acct [loadThreads]struct {
		insN, insSum, remN, remSum uint64
		sink                       uint64
		_                          [64]byte
	}
}

func newQSMove(p plan, seed uint64) *qsMove {
	w := &qsMove{}
	w.init(p, seed)
	return w
}

func (w *qsMove) setUp() error {
	w.newRuntime()
	w.q, w.s = repro.NewQueue(w.setup), repro.NewStack(w.setup)
	for i := uint64(1); i <= qsPrefill; i++ {
		w.q.Enqueue(w.setup, i)
		w.s.Push(w.setup, qsPrefill+i)
	}
	return nil
}

func (w *qsMove) run(c *clock) { w.drive(c, w.worker) }

func (w *qsMove) worker(r *libRounds) {
	id := r.id
	th, ws, tt, acct := w.ths[id], w.ws[id], r.tt, &w.acct[id]
	rng := xrand.New(w.seed*1000003 + uint64(id) + 1)
	lcg := w.seed | 1
	nextTok := uint64(id+1) << 40
	var moveToStack, enq, push bool
	traced := tt != nil
	for r.begin() {
		tLast := now() // end of the previous span: each span starts where the last ended
		var n uint64
		for ; ; n++ {
			sampled := !traced && n&latencySampleMask == 0
			var t0 int64
			if sampled {
				if t0 = now(); r.over(t0) {
					break
				}
				ws.live.Store(n)
			}
			var kind opKind
			var val uint64
			var ok bool
			switch rng.Uint64() >> 62 {
			case 0, 1: // 50% moves
				kind = opMove
				if moveToStack = !moveToStack; moveToStack {
					val, ok = repro.Move(th, w.q, w.s, 0, 0)
				} else {
					val, ok = repro.Move(th, w.s, w.q, 0, 0)
				}
			case 2: // 25% plain queue operations
				if enq = !enq; enq {
					kind, nextTok = opEnqueue, nextTok+1
					ok = w.q.Enqueue(th, nextTok)
					acct.insN, acct.insSum = acct.insN+1, acct.insSum+nextTok
				} else {
					kind = opDequeue
					if val, ok = w.q.Dequeue(th); ok {
						acct.remN, acct.remSum = acct.remN+1, acct.remSum+val
					}
				}
			default: // 25% plain stack operations
				if push = !push; push {
					kind, nextTok = opPush, nextTok+1
					ok = w.s.Push(th, nextTok)
					acct.insN, acct.insSum = acct.insN+1, acct.insSum+nextTok
				} else {
					kind = opPop
					if val, ok = w.s.Pop(th); ok {
						acct.remN, acct.remSum = acct.remN+1, acct.remSum+val
					}
				}
			}
			if !ok && (kind == opEnqueue || kind == opPush) {
				w.viol.addf("%s refused a value", kindNames[kind])
			}
			switch {
			case traced:
				t1 := now()
				tt.rec(kind, ok, tLast, t1)
				tLast = t1
			case sampled:
				ws.sample(now() - t0)
			}
			for i := 0; i < localWorkIters; i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
			}
			if traced {
				t2 := now()
				tt.rec(opLocalWork, true, tLast, t2)
				if tLast = t2; r.over(t2) {
					n++
					break
				}
			}
		}
		r.finish(n)
	}
	acct.sink = lcg
}

// verify is the conservation oracle: the tokens left in queue ∪ stack
// are pairwise distinct, and by count and by sum they are the prefill
// plus everything inserted minus everything removed.
func (w *qsMove) verify() []string {
	seen := make(map[uint64]struct{}, 2*qsPrefill)
	var n, sum uint64
	take := func(v uint64, from string) {
		if _, dup := seen[v]; dup {
			w.viol.addf("token %d is in the containers twice (second copy in the %s)", v, from)
		}
		seen[v] = struct{}{}
		n, sum = n+1, sum+v
	}
	for v, ok := w.q.Dequeue(w.setup); ok; v, ok = w.q.Dequeue(w.setup) {
		take(v, "queue")
	}
	for v, ok := w.s.Pop(w.setup); ok; v, ok = w.s.Pop(w.setup) {
		take(v, "stack")
	}
	wantN := uint64(2 * qsPrefill)
	wantSum := uint64(2*qsPrefill) * (2*qsPrefill + 1) / 2
	for i := range w.acct {
		a := &w.acct[i]
		wantN += a.insN - a.remN
		wantSum += a.insSum - a.remSum
	}
	if n != wantN || sum != wantSum {
		w.viol.addf("conservation: %d tokens summing to %d left, want %d summing to %d", n, sum, wantN, wantSum)
	}
	return w.viol.list
}

// ---------------------------------------------------------------------
// lib_map_kway

const (
	kwayKeys      = 4096 // shared keys, each in exactly one of the two maps
	kwayChurnSpan = 1024 // private keys per thread for the insert/remove churn
)

// tokenOf is the value stored under key k everywhere in the benchmark:
// unique per key, never zero, and checkable from the key alone.
func tokenOf(k uint64) uint64 { return (k + 1) * 0x9E3779B1 }

// mapKway is two pre-sized sharded maps that never grow, mostly read,
// with keyed moves and 2-key transfers between them. A thread moves
// only the shared keys of its own parity, so it always knows which map
// holds them and every move succeeds; it reads every key.
type mapKway struct {
	libBase
	maps [2]*repro.HashMap
	loc  [loadThreads][]uint8 // loc[id][k]: which map holds own key k
	out  [loadThreads]struct {
		churnLive uint64 // private keys currently inserted
		_         [64]byte
	}
}

func newMapKway(p plan, seed uint64) *mapKway {
	w := &mapKway{}
	w.init(p, seed)
	return w
}

func (w *mapKway) setUp() error {
	w.newRuntime()
	rng := xrand.New(w.seed ^ 0x6b776179)
	for i := range w.maps {
		w.maps[i] = repro.NewShardedHashMap(w.setup, 8, 512, 0)
	}
	for id := range w.loc {
		w.loc[id] = make([]uint8, kwayKeys)
	}
	for k := uint64(0); k < kwayKeys; k++ {
		side := uint8(rng.Uint64() & 1)
		w.loc[k%loadThreads][k] = side
		if !w.maps[side].Insert(w.setup, k, tokenOf(k)) {
			return fmt.Errorf("prefill: key %d refused", k)
		}
	}
	return nil
}

func (w *mapKway) run(c *clock) { w.drive(c, w.worker) }

// ownKey draws a shared key of thread id's parity.
func ownKey(rng *xrand.State, id int) uint64 {
	return uint64(rng.Intn(kwayKeys/loadThreads))*loadThreads + uint64(id)
}

func (w *mapKway) worker(r *libRounds) {
	id := r.id
	th, ws, tt, loc := w.ths[id], w.ws[id], r.tt, w.loc[id]
	rng := xrand.New(w.seed*1000003 + uint64(id) + 1)
	churnBase := uint64(kwayKeys + id*kwayChurnSpan)
	var churnN uint64 // even: insert key churnN/2, odd: remove it
	skeys, tkeys := make([]uint64, 2), make([]uint64, 2)
	traced := tt != nil
	for r.begin() {
		tLast := now()
		var n uint64
		for ; ; n++ {
			sampled := !traced && n&latencySampleMask == 0
			var t0 int64
			if sampled {
				if t0 = now(); r.over(t0) {
					break
				}
				ws.live.Store(n)
			}
			var kind opKind
			ok := true
			switch p := rng.Intn(100); {
			case p < 70: // read any key in either map
				kind = opGet
				k := uint64(rng.Intn(kwayKeys))
				side := uint8(rng.Uint64() & 1)
				v, found := w.maps[side].Contains(th, k)
				if found && v != tokenOf(k) {
					w.viol.addf("Contains(%d) = %d, want %d", k, v, tokenOf(k))
				}
				if int(k%loadThreads) == id && found != (loc[k] == side) {
					w.viol.addf("own key %d: found=%v in map %d, model says map %d", k, found, side, loc[k])
				}
				ok = found
			case p < 80: // churn on the private range
				k := churnBase + (churnN/2)%kwayChurnSpan
				m := w.maps[(churnN/2)&1]
				if churnN&1 == 0 {
					kind = opInsert
					if !m.Insert(th, k, tokenOf(k)) {
						w.viol.addf("Insert of absent private key %d refused", k)
					}
					w.out[id].churnLive++
				} else {
					kind = opRemove
					if v, found := m.Remove(th, k); !found || v != tokenOf(k) {
						w.viol.addf("Remove(%d) = %d,%v, want %d,true", k, v, found, tokenOf(k))
					}
					w.out[id].churnLive--
				}
				churnN++
			case p < 95: // move one own key to the other map
				kind = opMove
				k := ownKey(rng, id)
				from := loc[k]
				v, moved := repro.Move(th, w.maps[from], w.maps[1-from], k, k)
				if !moved || v != tokenOf(k) {
					w.viol.addf("Move(%d) from map %d = %d,%v, want %d,true", k, from, v, moved, tokenOf(k))
				} else {
					loc[k] = 1 - from
				}
			default: // transfer two own keys that share a map
				kind = opTransfer
				k1 := ownKey(rng, id)
				k2 := ownKey(rng, id)
				for k2 == k1 || loc[k2] != loc[k1] {
					k2 = (k2 + loadThreads) % kwayKeys
				}
				from := loc[k1]
				skeys[0], skeys[1], tkeys[0], tkeys[1] = k1, k2, k1, k2
				vals, moved := repro.TransferKeys(th, w.maps[from], w.maps[1-from], skeys, tkeys)
				// ok=false is legitimate here: two keys of one bucket chain
				// cannot be composed (data-dependent, see TransferKeys).
				if ok = moved; moved {
					if vals[0] != tokenOf(k1) || vals[1] != tokenOf(k2) {
						w.viol.addf("TransferKeys(%d,%d) = %v", k1, k2, vals)
					}
					loc[k1], loc[k2] = 1-from, 1-from
				}
			}
			if traced {
				t1 := now()
				tt.rec(kind, ok, tLast, t1)
				if tLast = t1; r.over(t1) {
					n++
					break
				}
			} else if sampled {
				ws.sample(now() - t0)
			}
		}
		r.finish(n)
	}
}

// verify checks that every shared key is in exactly the map its
// owner's model names, with its token, that nothing else is in the
// maps but the private keys still inserted, and that neither map grew.
func (w *mapKway) verify() []string {
	for k := uint64(0); k < kwayKeys; k++ {
		want := w.loc[k%loadThreads][k]
		for side := range w.maps {
			v, found := w.maps[side].Contains(w.setup, k)
			if found != (uint8(side) == want) || (found && v != tokenOf(k)) {
				w.viol.addf("key %d in map %d: %d,%v; model says map %d", k, side, v, found, want)
			}
		}
	}
	total := uint64(w.maps[0].Len(w.setup) + w.maps[1].Len(w.setup))
	want := uint64(kwayKeys)
	for id := range w.out {
		want += w.out[id].churnLive
	}
	if total != want {
		w.viol.addf("maps hold %d entries, want %d", total, want)
	}
	for side, m := range w.maps {
		if grows, _, _ := m.Stats(); grows != 0 {
			w.viol.addf("pre-sized map %d grew %d times", side, grows)
		}
	}
	return w.viol.list
}

// ---------------------------------------------------------------------
// lib_map_grow

// growKeys is the number of keys of one fill-and-drain cycle. A cycle is
// this workload's round: about 25 ms, in which each of the eight shards
// doubles nine times.
const growKeys = 32768

// mapGrow fills a small map until it has grown many times and drains it
// again, cycle after cycle, each cycle on a fresh runtime. Plain
// Insert/Contains/Remove only: composed operations racing a grow are
// ROADMAP open item 1 and would take the benchmark down with them.
type mapGrow struct {
	libBase
	m      *repro.HashMap
	fresh  bool // m has not been used by a cycle yet
	cycles uint64
	obsSum repro.ObsSnapshot // registries of the timed cycles of a traced pass, summed
}

func newMapGrow(p plan, seed uint64) *mapGrow {
	w := &mapGrow{}
	w.init(p, seed)
	return w
}

// setUp is what every cycle does before its timed span.
func (w *mapGrow) setUp() error {
	w.newCycle()
	return nil
}

// newCycle builds the runtime and the map and has every thread insert
// and remove one key, so that what the runtime sets up lazily on first
// use (arena slab, per-thread caches) is set-up and not the first
// operations of the fill.
func (w *mapGrow) newCycle() {
	w.newRuntime()
	w.m = repro.NewShardedHashMap(w.setup, 8, 8, 0)
	for _, th := range w.ths {
		w.m.Insert(th, growKeys, 1)
		w.m.Remove(th, growKeys)
	}
	w.fresh = true
}

func (w *mapGrow) run(c *clock) { w.drive(c, w.worker) }

// worker runs the cycles; a cycle is a round. Between two cycles the
// leading thread replaces the runtime and the map while the other waits
// for it where the round begins. The previous cycle's runtime is the
// harness's garbage: it is collected there, so that every cycle starts
// from the same heap and peak_rss_mb is one cycle's footprint, not an
// accident of when the collector ran. Construction and collection are
// outside the span rates are taken over.
func (w *mapGrow) worker(r *libRounds) {
	for {
		if r.id == 0 && !w.fresh {
			w.rt, w.m = nil, nil
			runtime.GC()
			w.newCycle()
		}
		if !r.begin() {
			return
		}
		m := w.m
		r.finish(w.fillDrain(r, m))
		// The leader may look at the map, and replace it, once every
		// thread is done with it.
		if !w.bar.wait(r.c) {
			return
		}
		if r.id == 0 {
			w.endCycle(m, r.timed)
		}
	}
}

// endCycle is the per-cycle oracle.
func (w *mapGrow) endCycle(m *repro.HashMap, timed bool) {
	w.fresh = false
	if n := m.Len(w.setup); n != 0 {
		w.viol.addf("cycle %d: %d entries left after the drain", w.cycles, n)
	}
	if grows, _, _ := m.Stats(); grows == 0 {
		w.viol.addf("cycle %d: map never grew", w.cycles)
	}
	w.cycles++
	if w.plan.trace && timed {
		w.obsSum.Merge(w.rt.Obs().Metrics().Snapshot())
	}
}

// fillDrain is one thread's half of a cycle; it returns the operations
// it made.
func (w *mapGrow) fillDrain(r *libRounds, m *repro.HashMap) uint64 {
	id := r.id
	th, ws, tt := w.ths[id], w.ws[id], r.tt
	traced := tt != nil
	lo := uint64(id) * growKeys / loadThreads
	hi := uint64(id+1) * growKeys / loadThreads
	var ops uint64
	tLast := now()
	for k := lo; k < hi; k++ {
		sampled := !traced && k&latencySampleMask == 0
		var t0 int64
		if sampled {
			t0 = now()
			ws.live.Store(ops)
		}
		if !m.Insert(th, k, tokenOf(k)) {
			w.viol.addf("Insert of absent key %d refused", k)
		}
		switch {
		case traced:
			t1 := now()
			tt.rec(opInsert, true, tLast, t1)
			tLast = t1
		case sampled:
			ws.sample(now() - t0)
		}
		ops++
		if k&3 == 3 { // one read per four inserts, of a key inserted earlier
			probe := lo + (k-lo)/2
			v, found := m.Contains(th, probe)
			if !found || v != tokenOf(probe) {
				w.viol.addf("Contains(%d) = %d,%v during the fill", probe, v, found)
			}
			if traced {
				t1 := now()
				tt.rec(opGet, found, tLast, t1)
				tLast = t1
			}
			ops++
		}
	}
	for k := lo; k < hi; k++ {
		v, found := m.Remove(th, k)
		if !found || v != tokenOf(k) {
			w.viol.addf("Remove(%d) = %d,%v, want %d,true", k, v, found, tokenOf(k))
		}
		if traced {
			t1 := now()
			tt.rec(opRemove, found, tLast, t1)
			tLast = t1
		}
		ops++
	}
	return ops
}

func (w *mapGrow) verify() []string {
	if w.cycles == 0 {
		w.viol.addf("no cycle completed")
	}
	return w.viol.list
}

func (w *mapGrow) layerMetrics(m metrics, c *clock) {
	w.commonLayers(m, c, w.obsSum)
	if s, _ := w.ts.merged(opInsert); s.Count > 0 {
		// Inserts that meet a sealed table are the slow tail of this
		// workload; nowhere else does an insert wait for a grow.
		m.set("hashmap.insert_p999_us", float64(s.Percentile(0.999))/1e3)
	}
}
