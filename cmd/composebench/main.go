// Command composebench regenerates the paper's evaluation figures
// (Figures 2–4 of "Supporting Lock-Free Composition of Concurrent Data
// Objects", Cederman & Tsigas) as tables or CSV.
//
// Each figure is one object pairing (Fig 2: queue/stack, Fig 3: two
// queues, Fig 4: two stacks) with three panels (move-only,
// insert/remove-only, both), comparing the lock-free composition against
// the blocking baseline across thread counts, with and without backoff,
// under the high- and low-contention local-work distributions.
//
// Beyond the paper's figures, -figure map runs the sharded-map churn +
// rebalance scenario: keyed operations and cross-map moves (including
// §8 MoveN fan-outs) over two growing maps, with every grow-time entry
// relocation performed by a Move, comparing the lock-free maps against
// the lock-striped blocking baseline (blocking.Map) — the keyed
// extension of Figures 2–4's lockfree-vs-blocking comparison; -keydist
// zipfian skews its keys, and a second read-mostly panel (-readfrac
// percent lookups, default 95) shows the lookup-heavy side of the same
// maps. -figure elim sweeps the §6 high-contention stack/stack cell
// with the elimination-backoff layer off and on, reporting hit rate
// and speedup. The -elim flag instead toggles the layer inside the
// paper figures' lock-free cells (off, on, or both variants per cell).
// -figure batch sweeps the batched move pipeline: the move-only
// queue/stack cell issued through a MoveBuffer at batch sizes
// -batchsizes (B=1 is the unbatched baseline), reporting ns/move and
// the speedup batching buys — an amortization curve, not a semantics
// change (every batched move stays individually linearizable).
//
// -figure adapt sweeps the adaptive contention-management subsystem:
// the zipfian map-churn cell with core.Config.Adaptive off and on,
// reporting the controllers' decisions (epochs sampled, window
// resizes, hot-shard attaches, pacing raises) next to the speedup.
// -figure ycsb runs the YCSB-style mixed-tenant cell: tenants with
// private key ranges and A/B/C-like read/insert/remove/move mixes
// sharing the same growing maps; the -adaptive flag toggles the
// subsystem there and in the map cells.
//
// -json FILE additionally writes every cell as a machine-readable
// record (mean/CI plus derived ns/op and ops/s per thread count), the
// format the perf-trajectory BENCH_*.json files are produced from.
//
// Example (full paper configuration — takes a while):
//
//	composebench -figure all -threads 1,2,4,8,16 -ops 5000000 -trials 50
//
// Quick shape check:
//
//	composebench -figure 2 -ops 200000 -trials 3
//	composebench -figure map -ops 500000 -trials 3 -keydist zipfian
//	composebench -figure elim -ops 500000 -trials 3 -json BENCH_elim.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
)

// jsonRow is one cell of machine-readable output: raw trial statistics
// plus the derived per-operation metrics the perf trajectory tracks.
type jsonRow struct {
	Figure      string  `json:"figure"`
	Pair        string  `json:"pair"`
	Mix         string  `json:"mix"`
	Contention  string  `json:"contention"`
	Backoff     bool    `json:"backoff"`
	Elimination bool    `json:"elimination"`
	Impl        string  `json:"impl"`
	Threads     int     `json:"threads"`
	Ops         int     `json:"ops"`
	Trials      int     `json:"trials"`
	MeanMS      float64 `json:"mean_ms"`
	CI95MS      float64 `json:"ci95_ms"`
	MinMS       float64 `json:"min_ms"`
	MaxMS       float64 `json:"max_ms"`
	NSPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// Always emitted (no omitempty): a recorded zero is itself a signal
	// (0% hit rate, a run with no grows), distinct from stats never
	// having been collected; the figure field tells map cells apart.
	ElimHits   float64 `json:"elim_hits"`
	ElimMisses float64 `json:"elim_misses"`
	Grows      float64 `json:"grows"`
	Migrated   float64 `json:"migrated"`
	// Adaptive-subsystem decision counters (per-trial means; nonzero
	// only in cells run with core.Config.Adaptive on).
	AdaptEpochs   float64 `json:"adapt_epochs"`
	WindowGrows   float64 `json:"adapt_window_grows"`
	WindowShrinks float64 `json:"adapt_window_shrinks"`
	Attaches      float64 `json:"adapt_attaches"`
	PaceRaises    float64 `json:"adapt_pace_raises"`
	// Per-operation latency percentiles from the striped histograms
	// (package latency). Only -latency cells fill them — unlike the
	// counters above, absence means "not measured", so omitempty.
	P50NS  int64 `json:"p50_ns,omitempty"`
	P99NS  int64 `json:"p99_ns,omitempty"`
	P999NS int64 `json:"p999_ns,omitempty"`
}

// jsonDoc is the -json file layout: host context (thread counts beyond
// host_cpus time-slice one CPU, which flattens contention effects),
// then one row per cell. Contended is false when the process had only
// one schedulable CPU (GOMAXPROCS=1): every "concurrent" cell then ran
// time-sliced, so the numbers say nothing about contention behavior and
// downstream consumers must not compare them against contended runs.
type jsonDoc struct {
	HostCPUs  int       `json:"host_cpus"`
	Contended bool      `json:"contended"`
	Rows      []jsonRow `json:"rows"`
}

// sink collects the optional CSV and JSON outputs.
type sink struct {
	csv  *os.File
	doc  *jsonDoc
	path string
}

func (s *sink) add(r jsonRow) {
	if s.doc != nil {
		s.doc.Rows = append(s.doc.Rows, r)
	}
}

func (s *sink) flush() {
	if s.doc == nil {
		return
	}
	b, err := json.MarshalIndent(s.doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(s.path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// row derives the JSON record from one harness result.
func row(figure string, o harness.Options, r harness.Result) jsonRow {
	return jsonRow{
		Figure: figure, Pair: o.Pair.String(), Mix: o.Mix.String(),
		Contention: o.Contention.String(), Backoff: o.Backoff,
		Elimination: o.Elimination, Impl: o.Impl.String(),
		Threads: o.Threads, Ops: r.Ops, Trials: len(r.SamplesNS),
		MeanMS: r.Summary.Mean / 1e6, CI95MS: r.Summary.CI95() / 1e6,
		MinMS: r.Summary.Min / 1e6, MaxMS: r.Summary.Max / 1e6,
		NSPerOp:   r.Summary.Mean / float64(r.Ops),
		OpsPerSec: float64(r.Ops) * 1e9 / r.Summary.Mean,
		ElimHits:  r.ElimHits, ElimMisses: r.ElimMisses,
	}
}

func main() {
	var (
		figures    = flag.String("figure", "all", "figures to run: comma list of 2,3,4,map,elim,batch,adapt,ycsb or 'all'")
		threads    = flag.String("threads", "1,2,4,8,16", "comma list of thread counts")
		ops        = flag.Int("ops", 1_000_000, "total operations per trial (paper: 5000000)")
		trials     = flag.Int("trials", 5, "trials per cell (paper: 50)")
		contention = flag.String("contention", "high", "local-work level: high, low, both, none")
		backoff    = flag.String("backoff", "off", "backoff: off, on, both (paper reports both)")
		elimFlag   = flag.String("elim", "off", "elimination layer on lock-free cells: off, on, both")
		prefill    = flag.Int("prefill", 512, "elements pre-inserted per object")
		pin        = flag.Bool("pin", true, "pin workers to OS threads")
		csvPath    = flag.String("csv", "", "also write results as CSV to this file")
		jsonPath   = flag.String("json", "", "also write results as JSON to this file (perf trajectory format)")
		mixes      = flag.String("mix", "all", "panels: move, insertremove, mixed, or 'all'")
		rebalancer = flag.Bool("rebalancer", true, "map scenario: dedicated RebalanceStep thread")
		keys       = flag.Int("keys", 8192, "map scenario: key-space size")
		keydist    = flag.String("keydist", "uniform", "map scenario key distribution: uniform, zipfian")
		readfrac   = flag.Int("readfrac", 95, "map scenario: lookup percent of the read-mostly panel (0 skips it)")
		batchSizes = flag.String("batchsizes", "1,4,16,64", "batch scenario: comma list of batch sizes (1 = unbatched)")
		adaptive   = flag.Bool("adaptive", false, "map/ycsb scenarios: enable the adaptive contention-management subsystem")
		latPcts    = flag.Bool("latency", false, "ycsb scenario: record per-op latency and report per-tenant p50/p99/p999")
		metrics    = flag.String("metrics", "", "write the aggregate metrics-registry snapshot (Prometheus text) to this file")
		traceOut   = flag.String("trace", "", "enable descriptor-protocol tracing; write JSONL events to this file (expect measurement skew)")
	)
	flag.Parse()

	// Observability artifacts span every trial the run dispatches: each
	// trial's registry snapshot merges and each tracer drain appends
	// (see internal/harness TakeObs). Tracing perturbs the measured hot
	// path, so it is only on when a trace file is requested.
	harness.Observe = obs.Config{Metrics: *metrics != "", Trace: *traceOut != ""}

	figs, err := parseFigures(*figures)
	if err != nil {
		fatal(err)
	}
	ths, err := parseInts(*threads)
	if err != nil {
		fatal(fmt.Errorf("bad -threads: %w", err))
	}
	conts, err := parseContention(*contention)
	if err != nil {
		fatal(err)
	}
	backs, err := parseOnOffBoth("backoff", *backoff)
	if err != nil {
		fatal(err)
	}
	elims, err := parseOnOffBoth("elim", *elimFlag)
	if err != nil {
		fatal(err)
	}
	mixList, err := parseMixes(*mixes)
	if err != nil {
		fatal(err)
	}
	zipf, err := parseKeyDist(*keydist)
	if err != nil {
		fatal(err)
	}

	out := &sink{}
	if *csvPath != "" {
		out.csv, err = os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer out.csv.Close()
		fmt.Fprintln(out.csv, "figure,pair,mix,contention,backoff,elim,impl,threads,ops,trials,mean_ms,ci95_ms,min_ms,max_ms")
	}
	contended := contendedRun()
	if !contended {
		fmt.Fprintln(os.Stderr, "composebench: warning: GOMAXPROCS=1 — concurrent cells run time-sliced on one CPU; results do not measure contention")
	}
	if *jsonPath != "" {
		out.doc = &jsonDoc{HostCPUs: runtime.NumCPU(), Contended: contended}
		out.path = *jsonPath
	}

	bsizes, err := parseInts(*batchSizes)
	if err != nil {
		fatal(fmt.Errorf("bad -batchsizes: %w", err))
	}

	for _, fig := range figs {
		switch fig {
		case figureMap:
			fmt.Printf("==== Sharded map: churn + Move rebalance, lockfree vs blocking ====\n")
			for _, cont := range conts {
				runMapPanel(out, cont, ths, *ops, *trials, *prefill, *pin, *rebalancer, *keys, zipf, 0, *adaptive)
				if *readfrac > 0 {
					runMapPanel(out, cont, ths, *ops, *trials, *prefill, *pin, *rebalancer, *keys, zipf, *readfrac, *adaptive)
				}
			}
		case figureYCSB:
			fmt.Printf("==== YCSB-style mixed tenants over shared maps ====\n")
			for _, cont := range conts {
				runYCSBPanel(out, cont, ths, *ops, *trials, *keys, *pin, *adaptive, *latPcts)
			}
		case figureAdapt:
			fmt.Printf("==== Adaptive contention management: map churn, off vs on ====\n")
			for _, cont := range conts {
				runAdaptPanel(out, cont, ths, *ops, *trials, *prefill, *pin, *rebalancer, *keys)
			}
		case figureBatch:
			fmt.Printf("==== Batched moves: MoveBuffer amortization curve ====\n")
			for _, cont := range conts {
				runBatchPanel(out, cont, ths, bsizes, *ops, *trials, *prefill, *pin)
			}
		case figureElim:
			fmt.Printf("==== Elimination backoff: stack/stack under contention ====\n")
			for _, cont := range conts {
				runElimPanel(out, cont, ths, *ops, *trials, *prefill, *pin)
			}
		default:
			pair := figurePair(fig)
			fmt.Printf("==== Figure %d: %s evaluation ====\n", fig, pair)
			for _, mix := range mixList {
				for _, cont := range conts {
					for _, bo := range backs {
						for _, el := range elims {
							runPanel(out, fig, pair, mix, cont, bo, el, ths, *ops, *trials, *prefill, *pin)
						}
					}
				}
			}
		}
	}
	out.flush()

	if *metrics != "" || *traceOut != "" {
		snap, events := harness.TakeObs()
		if *metrics != "" {
			f, err := os.Create(*metrics)
			if err == nil {
				err = snap.WritePrometheus(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fatal(fmt.Errorf("-metrics: %w", err))
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = obs.WriteJSONL(f, events)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fatal(fmt.Errorf("-trace: %w", err))
			}
			fmt.Fprintf(os.Stderr, "composebench: %d trace events written to %s\n", len(events), *traceOut)
		}
	}
}

// scenarioRow derives the JSON record for one map-family cell (the
// churn and mixed-tenant scenarios share every field but the figure
// label and result type).
func scenarioRow(figure, mix string, cont harness.Contention, impl harness.Impl,
	t, ops, trials int, sum stats.Summary,
	elimHits, elimMisses, grows, migrated float64, a harness.AdaptAgg) jsonRow {
	return jsonRow{
		Figure: figure, Pair: "map/map", Mix: mix,
		Contention: cont.String(), Impl: impl.String(),
		Threads: t, Ops: ops, Trials: trials,
		MeanMS: sum.Mean / 1e6, CI95MS: sum.CI95() / 1e6,
		MinMS: sum.Min / 1e6, MaxMS: sum.Max / 1e6,
		NSPerOp:   sum.Mean / float64(ops),
		OpsPerSec: float64(ops) * 1e9 / sum.Mean,
		ElimHits:  elimHits, ElimMisses: elimMisses,
		Grows: grows, Migrated: migrated,
		AdaptEpochs: a.Epochs, WindowGrows: a.WindowGrows,
		WindowShrinks: a.WindowShrinks, Attaches: a.Attaches,
		PaceRaises: a.PaceRaises,
	}
}

// mapRow is scenarioRow over a map-churn result.
func mapRow(figure, mix string, cont harness.Contention, impl harness.Impl,
	t int, r harness.MapResult) jsonRow {
	return scenarioRow(figure, mix, cont, impl, t, r.Ops, len(r.SamplesNS),
		r.Summary, r.ElimHits, r.ElimMisses, r.Grows, r.Migrated, r.Adapt)
}

// runMapPanel runs the map-churn scenario across thread counts for
// both implementation families — the keyed extension of the paper's
// lockfree-vs-blocking comparison — and prints throughput plus how
// much rebalancing each lock-free trial absorbed. readfrac > 0 selects
// the read-mostly variant: that percent of operations become plain
// lookups over the same growing maps.
func runMapPanel(out *sink, cont harness.Contention, ths []int,
	ops, trials, prefill int, pin, rebalancer bool, keys int, zipf bool, readfrac int, adaptive bool) {

	rstr := "no rebalancer"
	if rebalancer {
		rstr = "with rebalancer"
	}
	dist := "uniform keys"
	if zipf {
		dist = "zipfian keys"
	}
	workload := "keyed churn + cross-map moves"
	if readfrac > 0 {
		workload = fmt.Sprintf("read-mostly (%d%% lookups)", readfrac)
	}
	if adaptive {
		workload += ", adaptive"
	}
	fmt.Printf("\n-- %s, %s contention, %s, %s --\n", workload, cont, rstr, dist)
	fmt.Printf("%8s  %14s  %14s  %12s  %12s  %10s\n",
		"threads", "lockfree (ms)", "blocking (ms)", "lf ops/s", "grows/trial", "migrated")
	// The rebalancer flag and key distribution ride in the mix column;
	// the backoff column stays honest (the scenario never enables
	// backoff).
	mix := "churn"
	if readfrac > 0 {
		mix = fmt.Sprintf("read%d", readfrac)
	}
	if rebalancer {
		mix += "+rebalancer"
	}
	if zipf {
		mix += "+zipf"
	}
	if adaptive {
		mix += "+adapt"
	}
	for _, t := range ths {
		byImpl := make(map[harness.Impl]harness.MapResult)
		for _, impl := range []harness.Impl{harness.LockFree, harness.Blocking} {
			r := harness.RunMapChurn(harness.MapOptions{
				Impl:    impl,
				Threads: t, TotalOps: ops, Trials: trials,
				Keys: keys, Rebalancer: rebalancer, Zipf: zipf,
				ReadFraction: readfrac,
				Adaptive:     adaptive && impl == harness.LockFree,
				Contention:   cont, Prefill: prefill, Pin: pin,
			})
			byImpl[impl] = r
			if out.csv != nil {
				fmt.Fprintf(out.csv, "map,map/map,%s,%s,false,false,%s,%d,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
					mix, cont, impl, t, ops, trials,
					r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
					r.Summary.Min/1e6, r.Summary.Max/1e6)
			}
			out.add(mapRow("map", mix, cont, impl, t, r))
		}
		lf, bl := byImpl[harness.LockFree], byImpl[harness.Blocking]
		fmt.Printf("%8d  %9.1f ±%4.1f  %9.1f ±%4.1f  %12.0f  %12.1f  %10.1f\n", t,
			lf.Summary.Mean/1e6, lf.Summary.CI95()/1e6,
			bl.Summary.Mean/1e6, bl.Summary.CI95()/1e6,
			float64(ops)/(lf.Summary.Mean/1e9), lf.Grows, lf.Migrated)
	}
}

// runYCSBPanel runs the ABC mixed-tenant preset across thread counts,
// printing overall throughput and the per-tenant operation split. With
// latency on, each tenant additionally gets a per-op percentile line
// and its own JSON row (mix suffix "/tenant=<name>").
func runYCSBPanel(out *sink, cont harness.Contention, ths []int,
	ops, trials, keys int, pin, adaptive, latency bool) {

	label := "tenants A/B/C, private key ranges"
	if adaptive {
		label += ", adaptive"
	}
	fmt.Printf("\n-- %s, %s contention --\n", label, cont)
	fmt.Printf("%8s  %14s  %12s  %30s\n", "threads", "lockfree (ms)", "ops/s", "per-tenant r/i/d/m")
	for _, t := range ths {
		r := harness.RunYCSB(harness.YCSBOptions{
			Threads: t, TotalOps: ops, Trials: trials,
			Tenants:    harness.TenantsABC(keys / 3),
			Adaptive:   adaptive,
			Latency:    latency,
			Contention: cont, Pin: pin,
		})
		split := ""
		for _, pt := range r.PerTenant {
			split += fmt.Sprintf(" %s:%d/%d/%d/%d", pt.Name, pt.Reads, pt.Inserts, pt.Removes, pt.Moves)
		}
		fmt.Printf("%8d  %9.1f ±%4.1f  %12.0f %s\n", t,
			r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
			float64(ops)/(r.Summary.Mean/1e9), split)
		mix := "ycsb-abc"
		if adaptive {
			mix += "+adapt"
		}
		if out.csv != nil {
			fmt.Fprintf(out.csv, "ycsb,map/map,%s,%s,false,false,lockfree,%d,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
				mix, cont, t, ops, trials,
				r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
				r.Summary.Min/1e6, r.Summary.Max/1e6)
		}
		out.add(scenarioRow("ycsb", mix, cont, harness.LockFree, t,
			r.Ops, len(r.SamplesNS), r.Summary,
			r.ElimHits, r.ElimMisses, r.Grows, r.Migrated, r.Adapt))
		for i, s := range r.Latency {
			if s.Count == 0 {
				continue
			}
			p50, p99, p999 := s.Percentile(0.50), s.Percentile(0.99), s.Percentile(0.999)
			fmt.Printf("%8s  tenant %s: p50=%s p99=%s p999=%s max=%s (%d ops)\n",
				"", r.PerTenant[i].Name, fmtNS(p50), fmtNS(p99), fmtNS(p999), fmtNS(s.MaxNS), s.Count)
			tr := scenarioRow("ycsb", mix+"/tenant="+r.PerTenant[i].Name, cont,
				harness.LockFree, t, int(s.Count), len(r.SamplesNS), r.Summary,
				0, 0, 0, 0, harness.AdaptAgg{})
			tr.P50NS, tr.P99NS, tr.P999NS = p50, p99, p999
			out.add(tr)
		}
	}
}

// fmtNS renders a nanosecond latency at microsecond granularity.
func fmtNS(ns int64) string {
	return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
}

// runAdaptPanel sweeps the zipfian map-churn cell with the adaptive
// subsystem off and on — the subsystem's showcase: skewed keys make a
// few shards hot, which is exactly the signal the controllers feed on.
func runAdaptPanel(out *sink, cont harness.Contention, ths []int,
	ops, trials, prefill int, pin, rebalancer bool, keys int) {

	fmt.Printf("\n-- zipfian map churn, %s contention, adaptive off vs on --\n", cont)
	fmt.Printf("%8s  %14s  %14s  %8s  %8s  %9s  %9s\n",
		"threads", "adapt off (ms)", "adapt on (ms)", "speedup", "epochs", "attaches", "window±")
	for _, t := range ths {
		var off, on harness.MapResult
		for _, adaptive := range []bool{false, true} {
			r := harness.RunMapChurn(harness.MapOptions{
				Threads: t, TotalOps: ops, Trials: trials,
				Keys: keys, Rebalancer: rebalancer, Zipf: true,
				Adaptive:   adaptive,
				Contention: cont, Prefill: prefill, Pin: pin,
			})
			if adaptive {
				on = r
			} else {
				off = r
			}
			mix := "churn+zipf/adapt=off"
			if adaptive {
				mix = "churn+zipf/adapt=on"
			}
			if out.csv != nil {
				fmt.Fprintf(out.csv, "adapt,map/map,%s,%s,false,false,lockfree,%d,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
					mix, cont, t, ops, trials,
					r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
					r.Summary.Min/1e6, r.Summary.Max/1e6)
			}
			out.add(mapRow("adapt", mix, cont, harness.LockFree, t, r))
		}
		speedup := 0.0
		if on.Summary.Mean > 0 {
			speedup = off.Summary.Mean / on.Summary.Mean
		}
		fmt.Printf("%8d  %9.1f ±%4.1f  %9.1f ±%4.1f  %7.2fx  %8.0f  %9.0f  %4.0f/%-4.0f\n", t,
			off.Summary.Mean/1e6, off.Summary.CI95()/1e6,
			on.Summary.Mean/1e6, on.Summary.CI95()/1e6,
			speedup, on.Adapt.Epochs, on.Adapt.Attaches,
			on.Adapt.WindowGrows, on.Adapt.WindowShrinks)
	}
}

// runBatchPanel sweeps the batched move pipeline over batch sizes and
// thread counts: queue/stack move traffic in direction runs of B,
// committed either through one MoveBuffer flush per run or as B
// independent Move calls over the identical stream. The speedup column
// is unbatched-mean / batched-mean for the same (threads, B) cell. B=1
// rows are the degenerate baseline (the two mechanisms coincide).
func runBatchPanel(out *sink, cont harness.Contention, ths, bsizes []int,
	ops, trials, prefill int, pin bool) {

	fmt.Printf("\n-- queue/stack direction-run moves through MoveBuffer, %s contention --\n", cont)
	fmt.Printf("%8s  %6s  %16s  %14s  %10s  %9s\n", "threads", "B", "unbatched (ms)", "batched (ms)", "ns/move", "speedup")
	for _, t := range ths {
		for _, bs := range bsizes {
			base := harness.BatchOptions{
				Threads: t, TotalOps: ops, Trials: trials, BatchSize: bs,
				Pair: harness.QueueStack, Contention: cont,
				Prefill: prefill, Pin: pin,
			}
			variants := []bool{true}
			if bs > 1 {
				variants = []bool{true, false} // unbatched first, then batched
			}
			var un, ba harness.BatchResult
			for _, unbatched := range variants {
				o := base
				o.Unbatched = unbatched
				r := harness.RunMoveBatch(o)
				if unbatched {
					un = r
				} else {
					ba = r
				}
				mech := "batched"
				if unbatched {
					mech = "unbatched"
				}
				if out.csv != nil {
					fmt.Fprintf(out.csv, "batch,queue/stack,%s/B=%d,%s,false,false,lockfree,%d,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
						mech, bs, cont, t, ops, trials,
						r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
						r.Summary.Min/1e6, r.Summary.Max/1e6)
				}
				out.add(jsonRow{
					Figure: "batch", Pair: "queue/stack", Mix: fmt.Sprintf("%s/B=%d", mech, bs),
					Contention: cont.String(), Impl: harness.LockFree.String(),
					Threads: t, Ops: r.Ops, Trials: len(r.SamplesNS),
					MeanMS: r.Summary.Mean / 1e6, CI95MS: r.Summary.CI95() / 1e6,
					MinMS: r.Summary.Min / 1e6, MaxMS: r.Summary.Max / 1e6,
					NSPerOp:   r.Summary.Mean / float64(r.Ops),
					OpsPerSec: float64(r.Ops) * 1e9 / r.Summary.Mean,
				})
			}
			if bs <= 1 {
				fmt.Printf("%8d  %6d  %11.1f ±%4.1f  %14s  %10.1f  %9s\n", t, bs,
					un.Summary.Mean/1e6, un.Summary.CI95()/1e6, "-",
					un.Summary.Mean/float64(un.Ops), "-")
				continue
			}
			speedup := 0.0
			if ba.Summary.Mean > 0 {
				speedup = un.Summary.Mean / ba.Summary.Mean
			}
			fmt.Printf("%8d  %6d  %11.1f ±%4.1f  %9.1f ±%4.1f  %10.1f  %8.2fx\n", t, bs,
				un.Summary.Mean/1e6, un.Summary.CI95()/1e6,
				ba.Summary.Mean/1e6, ba.Summary.CI95()/1e6,
				ba.Summary.Mean/float64(ba.Ops), speedup)
		}
	}
}

// runElimPanel sweeps the stack/stack insert/remove cell with the
// elimination layer off and on — the layer's showcase configuration —
// printing the hit rate the on-run achieved.
func runElimPanel(out *sink, cont harness.Contention, ths []int,
	ops, trials, prefill int, pin bool) {

	fmt.Printf("\n-- stack/stack insert/remove, %s contention, elimination off vs on --\n", cont)
	fmt.Printf("%8s  %14s  %14s  %9s  %9s\n", "threads", "elim off (ms)", "elim on (ms)", "hit rate", "speedup")
	cells := harness.RunElimSweep(harness.Options{
		Pair: harness.StackStack, Mix: harness.InsertRemoveOnly,
		Contention: cont, TotalOps: ops, Trials: trials,
		Prefill: prefill, Pin: pin,
	}, ths)
	for _, c := range cells {
		fmt.Printf("%8d  %9.1f ±%4.1f  %9.1f ±%4.1f  %8.2f%%  %8.2fx\n", c.Threads,
			c.Off.Summary.Mean/1e6, c.Off.Summary.CI95()/1e6,
			c.On.Summary.Mean/1e6, c.On.Summary.CI95()/1e6,
			100*c.HitRate(), c.Speedup())
		for _, r := range []harness.Result{c.Off, c.On} {
			if out.csv != nil {
				fmt.Fprintf(out.csv, "elim,%s,%s,%s,%v,%v,%s,%d,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
					r.Options.Pair, r.Options.Mix, cont, r.Options.Backoff,
					r.Options.Elimination, r.Options.Impl, c.Threads, ops, trials,
					r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
					r.Summary.Min/1e6, r.Summary.Max/1e6)
			}
			out.add(row("elim", r.Options, r))
		}
	}
}

func runPanel(out *sink, fig int, pair harness.Pair, mix harness.Mix,
	cont harness.Contention, backoff, elim bool, ths []int, ops, trials, prefill int, pin bool) {

	bstr := "no backoff"
	if backoff {
		bstr = "with backoff"
	}
	if elim {
		bstr += ", with elimination"
	}
	fmt.Printf("\n-- %s operations, %s contention, %s --\n", mix, cont, bstr)
	fmt.Printf("%8s  %14s  %14s\n", "threads", "lockfree (ms)", "blocking (ms)")
	for _, t := range ths {
		byImpl := make(map[harness.Impl]harness.Result)
		for _, impl := range []harness.Impl{harness.LockFree, harness.Blocking} {
			o := harness.Options{
				Impl: impl, Pair: pair, Mix: mix, Contention: cont,
				Threads: t, TotalOps: ops, Trials: trials,
				Backoff: backoff, Prefill: prefill, Pin: pin,
				// The layer only exists on the lock-free side.
				Elimination: elim && impl == harness.LockFree,
			}
			r := harness.Run(o)
			byImpl[impl] = r
			if out.csv != nil {
				fmt.Fprintf(out.csv, "%d,%s,%s,%s,%v,%v,%s,%d,%d,%d,%.3f,%.3f,%.3f,%.3f\n",
					fig, pair, mix, cont, backoff, o.Elimination, impl, t, ops, trials,
					r.Summary.Mean/1e6, r.Summary.CI95()/1e6,
					r.Summary.Min/1e6, r.Summary.Max/1e6)
			}
			out.add(row(fmt.Sprintf("%d", fig), o, r))
		}
		lf, bl := byImpl[harness.LockFree], byImpl[harness.Blocking]
		fmt.Printf("%8d  %9.1f ±%4.1f  %9.1f ±%4.1f\n", t,
			lf.Summary.Mean/1e6, lf.Summary.CI95()/1e6,
			bl.Summary.Mean/1e6, bl.Summary.CI95()/1e6)
	}
}

// contendedRun reports whether concurrent cells actually contend: with
// GOMAXPROCS=1 every worker time-slices one CPU, so "contended" numbers
// from such a run are meaningless.
func contendedRun() bool { return runtime.GOMAXPROCS(0) > 1 }

func figurePair(fig int) harness.Pair {
	switch fig {
	case 2:
		return harness.QueueStack
	case 3:
		return harness.QueueQueue
	default:
		return harness.StackStack
	}
}

// figureMap, figureElim, figureBatch, figureYCSB and figureAdapt are
// the pseudo-figure numbers selecting the map-churn,
// elimination-sweep, batched-move, mixed-tenant and adaptive
// scenarios.
const (
	figureMap   = -1
	figureElim  = -2
	figureBatch = -3
	figureYCSB  = -4
	figureAdapt = -5
)

func parseFigures(s string) ([]int, error) {
	if s == "all" {
		return []int{2, 3, 4, figureMap, figureElim, figureBatch, figureAdapt, figureYCSB}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch part {
		case "map":
			out = append(out, figureMap)
			continue
		case "elim":
			out = append(out, figureElim)
			continue
		case "batch":
			out = append(out, figureBatch)
			continue
		case "ycsb":
			out = append(out, figureYCSB)
			continue
		case "adapt":
			out = append(out, figureAdapt)
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 || n > 4 {
			return nil, fmt.Errorf("bad -figure element %q (want 2, 3, 4, map, elim, batch, adapt or ycsb)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseOnOffBoth parses a three-state toggle flag.
func parseOnOffBoth(name, s string) ([]bool, error) {
	switch s {
	case "off":
		return []bool{false}, nil
	case "on":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	}
	return nil, fmt.Errorf("bad -%s %q (want off, on or both)", name, s)
}

// parseKeyDist parses the map scenario's key distribution.
func parseKeyDist(s string) (zipf bool, err error) {
	switch s {
	case "uniform":
		return false, nil
	case "zipfian", "zipf":
		return true, nil
	}
	return false, fmt.Errorf("bad -keydist %q (want uniform or zipfian)", s)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseContention(s string) ([]harness.Contention, error) {
	switch s {
	case "high":
		return []harness.Contention{harness.High}, nil
	case "low":
		return []harness.Contention{harness.Low}, nil
	case "both":
		return []harness.Contention{harness.High, harness.Low}, nil
	case "none":
		return []harness.Contention{harness.NoWork}, nil
	}
	return nil, fmt.Errorf("bad -contention %q", s)
}

func parseMixes(s string) ([]harness.Mix, error) {
	if s == "all" {
		return []harness.Mix{harness.MoveOnly, harness.InsertRemoveOnly, harness.Mixed}, nil
	}
	var out []harness.Mix
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "move":
			out = append(out, harness.MoveOnly)
		case "insertremove":
			out = append(out, harness.InsertRemoveOnly)
		case "mixed":
			out = append(out, harness.Mixed)
		default:
			return nil, fmt.Errorf("bad -mix element %q", part)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "composebench:", err)
	os.Exit(2)
}
