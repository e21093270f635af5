package main

import (
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// plan says how one pass over a workload spends its time: set-up
// (repeated, timed), warm-up (discarded), then the timed phase, which
// the load threads cut into rounds.
type plan struct {
	warm     time.Duration
	timed    time.Duration
	roundLen time.Duration // work of one round (lib_map_grow: one cycle instead)
	trace    bool          // record a span around every call into a layer
	quick    bool
	// Set-up is timed in two batches (main.go), each of at least minSetups
	// repetitions and then until setupBudget is spent or maxSetups is
	// reached.
	minSetups, maxSetups int
	setupBudget          time.Duration
	// grace is what the watchdog allows on top of three times the
	// pass's nominal length.
	grace time.Duration
}

// Shares of -seconds the passes of a run take. An untraced run is one
// pass over all of it. A traced run is an untraced reference pass and a
// traced pass (the ratio of their rates is the tracing overhead), then
// the probes.
const (
	untracedShare  = 1.0
	referenceShare = 0.2
	tracedShare    = 0.4
)

// planFor returns the pass that measures for share of seconds.
func planFor(seconds, share float64, trace, quick bool) plan {
	p := plan{
		timed:    time.Duration(seconds * share * float64(time.Second)),
		warm:     time.Duration(min(seconds/10, 1) * float64(time.Second)),
		roundLen: 10 * time.Millisecond,
		trace:    trace,

		minSetups: 3, maxSetups: 501, setupBudget: 350 * time.Millisecond,
		grace: 10 * time.Second,
	}
	if quick {
		p.quick = true
		p.timed, p.warm = 200*time.Millisecond, 50*time.Millisecond
		p.minSetups, p.maxSetups, p.grace = 1, 1, 2*time.Second
	}
	return p
}

// epoch is the zero of every span timestamp.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Phases of a pass.
const (
	phaseWarm int32 = iota
	phaseTimed
	phaseStop
)

// clock walks a pass through its phases. Nothing sleeps while a pass is
// measured: the leading load thread advances the phase between rounds,
// by the time it reads there, so every round belongs to one phase. The
// watchdog may stop the clock from outside.
type clock struct {
	phase atomic.Int32
	_     [60]byte
	plan  plan
	// Set by the leading load thread: when the pass began, when its timed
	// phase began and ended, and the bench process's CPU time at those two.
	t0, tTimed, tEnd int64
	cpuTimed, cpuEnd time.Duration
}

func newClock(p plan) *clock { return &clock{plan: p} }

func (c *clock) stopped() bool { return c.phase.Load() == phaseStop }

func (c *clock) stop() { c.phase.Store(phaseStop) }

// tick is called by the leading load thread before every round and
// returns the phase the round belongs to.
func (c *clock) tick() int32 {
	t := now()
	if c.t0 == 0 {
		c.t0 = t
	}
	switch ph := c.phase.Load(); {
	case ph == phaseWarm && t-c.t0 >= int64(c.plan.warm):
		c.tTimed, c.cpuTimed = t, selfCPU()
		c.phase.CompareAndSwap(phaseWarm, phaseTimed) // a watchdog's stop wins
	case ph == phaseTimed && t-c.tTimed >= int64(c.plan.timed):
		c.stop()
	}
	return c.phase.Load()
}

// end closes the timed phase; the leading load thread calls it once,
// when it has left its last round.
func (c *clock) end() {
	c.tEnd, c.cpuEnd = now(), selfCPU()
	if c.tTimed == 0 { // stopped during warm-up
		c.tTimed, c.cpuTimed = c.tEnd, c.cpuEnd
	}
}

// slice is what one load thread did in one round: work for the round's
// length, booked when the work ends.
type slice struct {
	timed       bool
	ops, failed uint64
	t0, workNS  int64         // when the work began and how long it took
	cpu         time.Duration // CPU of the thread (lib_*) or the server (svc_*) over the work
	lat0, lat1  int           // the round's latency samples are lat[lat0:lat1]
}

// maxSamples bounds the latency samples one load thread keeps. The
// buffer is allocated once at full size, so sampling never grows the
// heap while a round is measured (peak_rss_mb is the bench process's own
// on lib_*); pages it does not reach are never touched.
const maxSamples = 1 << 20

// workerStats is one load thread's booking.
type workerStats struct {
	slices []slice
	lat    []int32 // ns
	// What the watchdog reads while the thread is stuck: operations and
	// failures booked in timed rounds, and the progress of the open round.
	done, failed, live atomic.Uint64
	_                  [64]byte
}

func newWorkerStats(n int) []*workerStats {
	ws := make([]*workerStats, n)
	for i := range ws {
		ws[i] = &workerStats{slices: make([]slice, 0, 1<<12), lat: make([]int32, 0, maxSamples)}
	}
	return ws
}

// open starts a round's slice.
func (w *workerStats) open(timed bool) *slice {
	w.slices = append(w.slices, slice{timed: timed, lat0: len(w.lat), t0: now()})
	return &w.slices[len(w.slices)-1]
}

// book closes slice s with what the round did.
func (w *workerStats) book(s *slice, ops, failed uint64, workNS int64, cpu time.Duration) {
	s.ops, s.failed, s.workNS, s.cpu, s.lat1 = ops, failed, workNS, cpu, len(w.lat)
	w.live.Store(0)
	if s.timed {
		w.done.Add(ops)
		w.failed.Add(failed)
	}
}

// sample keeps one latency of the open round. Past maxSamples the rest
// of the pass goes unsampled.
func (w *workerStats) sample(ns int64) {
	if len(w.lat) < maxSamples {
		w.lat = append(w.lat, int32(min(ns, math.MaxInt32)))
	}
}

// totals sums the timed rounds: attempted counts every operation issued,
// failed the ones that ended in an error.
func totals(ws []*workerStats) (attempted, failed uint64) {
	for _, w := range ws {
		f := w.failed.Load()
		attempted += w.done.Load() + f
		failed += f
	}
	return
}

// timedLatencies returns every latency sample of the timed rounds,
// sorted.
func timedLatencies(ws []*workerStats) []int64 {
	var all []int64
	for _, w := range ws {
		for i := range w.slices {
			if s := &w.slices[i]; s.timed {
				for _, ns := range w.lat[s.lat0:s.lat1] {
					all = append(all, int64(ns))
				}
			}
		}
	}
	slices.Sort(all)
	return all
}

// spinBarrier lets the load threads of a pass start every round
// together. Nobody sleeps at it: a thread that sleeps lets its
// processor halt.
type spinBarrier struct {
	n       atomic.Int64
	_       [56]byte
	parties int64
}

// wait returns when all parties have arrived, or false when the clock
// was stopped meanwhile (a stuck party must not hang the others).
func (b *spinBarrier) wait(c *clock) bool {
	v := b.n.Add(1)
	target := (v + b.parties - 1) / b.parties * b.parties
	for i := 0; b.n.Load() < target; i++ {
		if i&255 == 255 && c.stopped() {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// From rounds to metrics

// round is one round of a pass over all its load threads.
type round struct {
	rate     float64 // operations per second
	cpuPerOp float64 // ns
	p50, p90 float64 // ns
}

// timedRounds merges the load threads' slices into the timed rounds of
// the pass. Threads are in step (a barrier opens every round), so round
// k is every thread's k-th slice; a round some thread did not finish is
// dropped. CPU per operation is taken over blocks of cpuBlock consecutive
// rounds and given to each of them: a CPU clock that is exact only over
// several rounds (the server's, svc.go) is read over that many.
func timedRounds(ws []*workerStats, cpuBlock int) []round {
	n := math.MaxInt
	for _, w := range ws {
		n = min(n, len(w.slices))
	}
	var out []round
	var opsOf, cpuOf []float64
	var lat []int64
	for k := 0; k < n; k++ {
		var r round
		var ops uint64
		var cpu time.Duration
		lat = lat[:0]
		whole := true
		for _, w := range ws {
			s := &w.slices[k]
			if !s.timed || s.workNS <= 0 || s.ops == 0 {
				whole = false
				break
			}
			ops += s.ops
			cpu += s.cpu
			r.rate += float64(s.ops) / float64(s.workNS) * 1e9
			for _, ns := range w.lat[s.lat0:s.lat1] {
				lat = append(lat, int64(ns))
			}
		}
		if !whole {
			continue
		}
		slices.Sort(lat)
		r.p50, r.p90 = quantile(lat, 0.50), quantile(lat, 0.90)
		out = append(out, r)
		opsOf, cpuOf = append(opsOf, float64(ops)), append(cpuOf, float64(cpu))
	}
	for i := 0; i < len(out); i += cpuBlock {
		j := min(i+cpuBlock, len(out))
		var ops, cpu float64
		for k := i; k < j; k++ {
			ops, cpu = ops+opsOf[k], cpu+cpuOf[k]
		}
		for k := i; k < j; k++ {
			out[k].cpuPerOp = cpu / ops
		}
	}
	return out
}

// The host is a small virtual machine whose processors are hardware
// threads of a shared server: for seconds on end a neighbour on the
// sibling thread or in the shared cache makes everything here 1.3 to 2
// times slower, then leaves (README.md, "What the host does to a run").
// A neighbour never makes a round faster. So the value a run reports for
// a per-round quantity is not the median of its rounds, which moves with
// the share of the run the neighbours took, but the decile on the good
// side: the rate that a tenth of the rounds reached, the latency and the
// CPU time that a tenth of the rounds stayed under. It holds still as
// long as a tenth of the run was undisturbed, and a change to the program
// moves it as it moves the median.

// upperDecile and lowerDecile return the value a tenth of vals reach, or
// stay under.
func upperDecile(vals []float64) float64 { return quantileOf(vals, 0.9) }
func lowerDecile(vals []float64) float64 { return quantileOf(vals, 0.1) }

func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// endToEndMetrics fills the per-round metrics of an untraced pass:
// throughput, latency percentiles and CPU per operation, each the
// good-side decile of the rounds' values. backgroundNS is CPU the
// process under test spent per operation outside its load threads'
// rounds (lib_*: the collector's workers), added as measured.
func endToEndMetrics(m metrics, rounds []round, backgroundNS float64) {
	col := func(f func(*round) float64) []float64 {
		vals := make([]float64, len(rounds))
		for k := range rounds {
			vals[k] = f(&rounds[k])
		}
		return vals
	}
	m.set("ops_per_s", upperDecile(col(func(r *round) float64 { return r.rate })))
	m.set("lat_p50_us", lowerDecile(col(func(r *round) float64 { return r.p50 }))/1e3)
	m.set("lat_p90_us", lowerDecile(col(func(r *round) float64 { return r.p90 }))/1e3)
	m.set("cpu_us_per_op", (lowerDecile(col(func(r *round) float64 { return r.cpuPerOp }))+backgroundNS)/1e3)
}

// medianRate is the plain median of the rounds' rates: what the traced
// and the reference pass of a traced run are compared by.
func medianRate(rounds []round) float64 {
	vals := make([]float64, len(rounds))
	for k := range rounds {
		vals[k] = rounds[k].rate
	}
	return median(vals)
}
