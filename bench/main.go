// Command bench is the repository benchmark: five named workloads over
// the composition engine (in-process) and the kvserver binary (child
// process), each checked by a correctness oracle, reporting six
// end-to-end metrics untraced and a per-layer budget in a traced pass.
// README.md in this directory defines every workload and metric.
//
//	bash bench/run.sh --workload lib_qs_move --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload all --out runs.jsonl
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// One run prints, as the last line of its standard output, one JSON
// object {correct, attempted, failed, metrics}; everything else (host,
// validity, oracle findings) goes to standard error and to -out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"
)

// workload is one of the five benchmark workloads, built for one pass.
type workload interface {
	// setUp builds everything the pass needs before its first
	// operation: server launch and prefill, or runtime and containers.
	setUp() error
	// teardown releases it; safe after a failed setUp.
	teardown()
	// run drives warm-up and the timed rounds and joins the load
	// threads.
	run(c *clock)
	// rounds is what the timed rounds measured.
	rounds(c *clock) []round
	// backgroundNS is CPU per operation that the process under test spent
	// outside the rounds' own accounts.
	backgroundNS(c *clock) float64
	// verify runs the correctness oracle and returns what it found.
	verify() []string
	// stats is the load threads' booking.
	stats() []*workerStats
	// spans is the pass's span store, nil for an untraced pass.
	spans() *traceSet
	// pid is the process whose CPU and memory are reported (0: this one).
	pid() int
	// layerMetrics fills the per-layer metrics of a traced pass.
	layerMetrics(m metrics, c *clock)
	// valid reports whether the load generator kept its schedule (an
	// open loop can fall behind; a closed loop cannot).
	valid(c *clock) bool
	// diagnose describes the process under test for the watchdog.
	diagnose() string
}

var workloadNames = []string{"lib_qs_move", "lib_map_kway", "lib_map_grow", "svc_point", "svc_pipe"}

// judgedWorkloads are the workloads BENCHMARK.json lists, which the
// driver runs and judges. svc_point is built, tested and run by
// `-workload all` like the others but is not among them: the driver's
// time cap is for all runs together, four workloads can be run for 30
// seconds each where five could for 22, and svc_point is the one whose
// numbers this host keeps steady least (README.md, "Where this departs
// from ISSUE 12").
var judgedWorkloads = []string{"lib_qs_move", "lib_map_kway", "lib_map_grow", "svc_pipe"}

func isService(name string) bool { return name == "svc_point" || name == "svc_pipe" }

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	quick     bool
	traceOut  string
	roundsOut string
	out       string
	root      string
	buildDir  string
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics,omitempty"`
}

// record is a result with what identifies and qualifies it: the line
// format of -out files, which -compare reads.
type record struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Trace      int      `json:"trace"`
	Seconds    float64  `json:"seconds"`
	HostCPUs   int      `json:"host_cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Contended  bool     `json:"contended"`
	Valid      bool     `json:"valid"`
	Pinned     bool     `json:"pinned"` // threads and server stayed on the processors they were put on
	Findings   []string `json:"findings,omitempty"`
	// Rounds the end-to-end values were taken from (untraced runs).
	Rounds int `json:"rounds,omitempty"`
	result
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == burnFlag {
		burn()
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: one of the five names, or all (every workload, untraced then traced)")
	fs.Uint64Var(&o.seed, "seed", 1, "seeds key and operation choice")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase")
	fs.IntVar(&o.trace, "trace", 0, "1: traced pass (per-layer metrics), 0: untraced pass (end-to-end metrics)")
	fs.BoolVar(&o.quick, "quick", false, "0.2 s timed phase per pass and short probes (smoke test)")
	fs.StringVar(&o.traceOut, "trace-out", "", "directory for the traced pass's span files (default <build-dir>/trace)")
	fs.StringVar(&o.roundsOut, "rounds-out", "", "append the rounds of every untraced run to this file, one JSON line per round")
	fs.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	fs.StringVar(&o.root, "root", "", "repository root, where kvserver is built from (default: . or .., whichever holds cmd/kvserver)")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for build outputs and traces")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.buildDir, "trace")
	}
	if o.root == "" {
		o.root = "."
		if _, err := os.Stat("cmd/kvserver"); err != nil {
			o.root = ".." // started from the benchmark's own directory
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	names := []string{o.workload}
	traces := []int{o.trace}
	if o.workload == "all" {
		names, traces = workloadNames, []int{0, 1}
	}
	code := 0
	for _, tr := range traces {
		for _, name := range names {
			rec, err := runWorkload(ctx, o, name, tr, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if err := emit(rec, o, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if !rec.Correct || rec.Failed > 0 {
				code = 1
			}
			if ctx.Err() != nil {
				return 130
			}
		}
	}
	return code
}

// emit reports one run: the qualifying record on stderr and in -out,
// the result object as a line of stdout.
func emit(rec record, o options, stdout, stderr io.Writer) error {
	info := rec
	info.Metrics = nil
	if line, err := json.Marshal(info); err == nil {
		fmt.Fprintf(stderr, "bench: %s\n", line)
	}
	if o.out != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(o.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// workloads builds each workload for one pass.
var workloads = map[string]func(ctx context.Context, p plan, seed uint64, serverBin string) workload{
	"lib_qs_move":  func(_ context.Context, p plan, seed uint64, _ string) workload { return newQSMove(p, seed) },
	"lib_map_kway": func(_ context.Context, p plan, seed uint64, _ string) workload { return newMapKway(p, seed) },
	"lib_map_grow": func(_ context.Context, p plan, seed uint64, _ string) workload { return newMapGrow(p, seed) },
	"svc_point": func(ctx context.Context, p plan, seed uint64, bin string) workload {
		return newSvcPoint(ctx, p, seed, bin)
	},
	"svc_pipe": func(ctx context.Context, p plan, seed uint64, bin string) workload {
		return newSvcPipe(ctx, p, seed, bin)
	},
}

// runWorkload is one run of one workload: an untraced run is one pass
// reporting the end-to-end metrics; a traced run is an untraced
// reference pass, a traced pass and the probes, reporting the per-layer
// metrics.
func runWorkload(ctx context.Context, o options, name string, trace int, stderr io.Writer) (rec record, err error) {
	rec = record{
		Workload: name, Seed: o.seed, Trace: trace, Seconds: o.seconds,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Contended: runtime.GOMAXPROCS(0) > 1,
		Valid:     true,
	}
	rec.Correct, rec.Metrics = true, metrics{}
	defer func() { rec.Pinned = pinned.Load() }()

	var serverBin string
	var buildS float64
	if isService(name) {
		if serverBin, buildS, err = buildServer(o.root, o.buildDir); err != nil {
			return rec, err
		}
	}

	if trace == 0 {
		p, err := runPass(ctx, &rec, o, name, planFor(o.seconds, untracedShare, false, o.quick), serverBin, stderr)
		if err != nil {
			return rec, err
		}
		if p != nil {
			rounds := p.w.rounds(p.c)
			endToEndMetrics(rec.Metrics, rounds, p.w.backgroundNS(p.c))
			rec.Rounds = len(rounds)
			rec.Metrics.set("setup_s", p.setupS)
			rec.Metrics.set("peak_rss_mb", p.peakRSS)
			rec.Valid = p.w.valid(p.c)
			if o.roundsOut != "" {
				if err := writeRounds(o.roundsOut, name, o.seed, rounds); err != nil {
					return rec, err
				}
			}
		}
		rec.Metrics.fill(endToEnd)
		return rec, nil
	}

	ref, err := runPass(ctx, &rec, o, name, planFor(o.seconds, referenceShare, false, o.quick), serverBin, stderr)
	if err != nil {
		return rec, err
	}
	tr, err := runPass(ctx, &rec, o, name, planFor(o.seconds, tracedShare, true, o.quick), serverBin, stderr)
	if err != nil {
		return rec, err
	}
	if ref != nil && tr != nil {
		tr.w.layerMetrics(rec.Metrics, tr.c)
		rec.Metrics.set("obs.trace_overhead_ratio", ratio(medianRate(tr.w.rounds(tr.c)), medianRate(ref.w.rounds(ref.c))))
		rec.Valid = tr.w.valid(tr.c)
	}
	scale := 1
	if o.quick {
		scale = 50
	}
	runProbes(rec.Metrics, o.seed, scale)
	rec.Metrics.set("bench.build_s", buildS)
	rec.Metrics.set("bench.fail_ratio", ratio(float64(rec.Failed), float64(rec.Attempted)))
	valid := 0.0
	if rec.Valid {
		valid = 1
	}
	rec.Metrics.set("bench.valid", valid)
	rec.Metrics.fill(perLayer)
	return rec, nil
}

// pass is what one completed pass leaves for the metrics.
type pass struct {
	w       workload
	c       *clock
	setupS  float64
	peakRSS float64
}

// runPass sets a workload up (several times over), runs it under the
// watchdog, verifies it, and books its totals and findings into rec. It
// returns nil, without an error, when the watchdog had to cut the pass:
// the run is then incorrect but still reported.
//
// Set-up is timed in two batches, one before the pass and one after it,
// and the time reported is the lower decile of all repetitions, as for
// the rounds' values (run.go): a batch lasts a fraction of a second and
// falls inside a neighbour's episode whole or not at all, and two batches
// half a minute apart seldom both do.
func runPass(ctx context.Context, rec *record, o options, name string, p plan, serverBin string, stderr io.Writer) (*pass, error) {
	if _, ok := workloads[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	build := func() workload { return workloads[name](ctx, p, o.seed, serverBin) }
	w, setupSecs, err := timeSetUps(build, p)
	if err != nil {
		return nil, err
	}
	defer func() { w.teardown() }()
	if w.pid() == 0 {
		// The discarded set-ups are garbage of this process: drop them
		// and restart the resident-set high-water mark, so that the
		// peak is the workload's. Failing to reset only raises the peak.
		runtime.GC()
		debug.FreeOSMemory()
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}

	pid := w.pid()
	c := newClock(p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run(c)
	}()
	// Hard deadline: three times the nominal length of the pass, plus
	// room for verification.
	deadline := 3*(p.warm+p.timed) + p.grace
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()
	select {
	case <-done:
	case <-ctx.Done():
		c.stop()
		w.teardown() // the load thread's next exchange with the server fails
		select {
		case <-done:
		case <-time.After(ioTimeout):
		}
		return nil, ctx.Err()
	case <-watchdog.C:
		c.stop()
		fmt.Fprintf(stderr, "bench: %s: watchdog: pass not finished after %v; goroutines:\n", name, deadline)
		pprof.Lookup("goroutine").WriteTo(stderr, 2)
		fmt.Fprintln(stderr, w.diagnose())
		w.teardown()
		// Everything done in the round that was cut counts as failed.
		attempted, failed := totals(w.stats())
		var cut uint64
		for _, ws := range w.stats() {
			cut += ws.live.Load()
		}
		rec.Attempted += attempted + max(cut, 1)
		rec.Failed += failed + max(cut, 1)
		rec.Correct = false
		rec.Findings = append(rec.Findings, "watchdog cut the pass")
		return nil, nil
	}

	findings := w.verify()
	attempted, failed := totals(w.stats())
	rec.Attempted += attempted
	rec.Failed += failed
	if len(findings) > 0 {
		rec.Correct = false
		rec.Findings = append(rec.Findings, findings...)
	}
	if attempted == 0 {
		return nil, errors.New("no operation was attempted in the timed phase")
	}
	out := &pass{w: w, c: c}
	if out.peakRSS, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	if ts := w.spans(); ts != nil {
		path := filepath.Join(o.traceOut, fmt.Sprintf("%s.seed%d.jsonl", name, o.seed))
		if err := ts.write(path, name, o.seed, c); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	w.teardown()
	if !p.quick {
		last, more, err := timeSetUps(build, p)
		if err != nil {
			return nil, err
		}
		last.teardown()
		setupSecs = append(setupSecs, more...)
	}
	out.setupS = lowerDecile(setupSecs)
	return out, nil
}

// timeSetUps builds and sets up the workload of a pass several times
// over, on fresh state each time, and returns the last one with the time
// each set-up took: at least minSetups repetitions and, when set-up is
// cheap, as many as fit setupBudget.
func timeSetUps(build func() workload, p plan) (workload, []float64, error) {
	defer pin(clientSlot)()
	var w workload
	var secs []float64
	for begun := time.Now(); len(secs) < p.minSetups || (len(secs) < p.maxSetups && time.Since(begun) < p.setupBudget); {
		if w != nil {
			w.teardown()
		}
		w = build()
		// Each repetition starts from a collected heap and is timed with
		// the collector off: whether a cycle happens to fall inside a
		// millisecond of set-up is an accident, not a cost of the set-up.
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		err := w.setUp()
		d := time.Since(t0)
		debug.SetGCPercent(gc)
		if err != nil {
			w.teardown()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return w, secs, nil
}

// writeRounds appends the rounds of one untraced run to path, one JSON
// line each: what the end-to-end values were taken from.
func writeRounds(path, workload string, seed uint64, rounds []round) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for k, r := range rounds {
		fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"round\":%d,\"ops_per_s\":%.6g,\"lat_p50_ns\":%.6g,\"lat_p90_ns\":%.6g,\"cpu_ns_per_op\":%.6g}\n",
			workload, seed, k+1, r.rate, r.p50, r.p90, r.cpuPerOp)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
