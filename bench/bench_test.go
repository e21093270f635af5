package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kvwire"
)

// lastResult runs the command with args and parses the last line of its
// standard output.
func lastResult(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of stdout is not a result: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return res, code
}

// TestQuickAllWorkloads runs every workload in -quick mode, untraced
// and traced, and checks that verification passes, nothing fails, and
// every metric of the catalogue is reported, finite and with its unit.
func TestQuickAllWorkloads(t *testing.T) {
	buildDir := t.TempDir()
	for _, name := range workloadNames {
		if isService(name) && testing.Short() {
			continue // needs the kvserver child process
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, code := lastResult(t, "-workload", name, "-quick", "-trace", []string{"0", "1"}[trace],
				"-root", "..", "-build-dir", buildDir)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: exit %d, correct=%v, attempted=%d, failed=%d", name, trace, code, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics reported, catalogue has %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%d: metric %s has unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: metric %s is not finite", name, trace, d.name)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, m.Value)
				}
			}
			if trace == 1 {
				grew := res.Metrics["hashmap.grows_total"].Value + res.Metrics["kvserver.map_grows_total"].Value
				if (name == "lib_map_grow") != (grew > 0) {
					t.Errorf("%s: map grows = %v; only lib_map_grow may grow a map", name, grew)
				}
				if !isService(name) && res.Metrics["bench.span_coverage_ratio"].Value < 0.9 {
					t.Errorf("%s: spans cover %.2f of load-thread time, want >= 0.9", name, res.Metrics["bench.span_coverage_ratio"].Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps ../BENCHMARK.json and the
// catalogue in metrics.go from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(judgedWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program judges %d", len(doc.Workloads), len(judgedWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != judgedWorkloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: name %q (want %q), why of %d characters", i, w.Name, judgedWorkloads[i], len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, got, d)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median of five = %v, want 5", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// Ten samples of 100 ns and ten of 200 ns: the median sits on the
	// boundary of the two groups, p25 in the middle of the first.
	var s []int64
	for i := 0; i < 10; i++ {
		s = append(s, 100)
	}
	for i := 0; i < 10; i++ {
		s = append(s, 200)
	}
	if got := quantile(s, 0.25); got != 100 {
		t.Errorf("p25 = %v, want 100 (middle of the 100 ns group)", got)
	}
	if got := quantile(s, 0.5); got != 199.5 {
		t.Errorf("p50 = %v, want 199.5 (lower edge of the 200 ns group)", got)
	}
	if got := quantile(s, 1); got < 200 || got > 200.5 {
		t.Errorf("p100 = %v, want within the 200 ns group", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of none = %v, want 0", got)
	}
	// Rounds of a run: all but two slowed by a neighbour. The good-side
	// decile reads the undisturbed rounds' value.
	rates := []float64{60, 100, 70, 65, 64, 62, 75, 66, 61, 63, 101}
	if got := upperDecile(rates); got != 100 {
		t.Errorf("upper decile = %v, want 100", got)
	}
	if got := lowerDecile([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}); got != 1 {
		t.Errorf("lower decile of 0..10 = %v, want 1", got)
	}
	if got := lowerDecile(nil); got != 0 {
		t.Errorf("lower decile of none = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) gives, since that is the rule the
// spread of ten runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 4, 7, 3, 8, 2, 9, 5, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v, want 0.75 2.25", q1, q3)
	}
}

func TestLedgerAuditDelta(t *testing.T) {
	ok := func(vals ...uint64) kvwire.Response { return kvwire.Response{Status: "OK", Vals: vals} }
	var l ledger
	l.apply(kvwire.OpPut, 70, ok())
	l.apply(kvwire.OpPut, 30, ok())
	l.apply(kvwire.OpPut, 99, kvwire.Response{Status: "EXISTS"}) // not acknowledged: no change
	l.apply(kvwire.OpDel, 0, ok(70))
	l.apply(kvwire.OpDel, 0, kvwire.Response{Status: "NF"})
	l.apply(kvwire.OpGet, 0, ok(30))
	l.apply(kvwire.OpMove, 0, ok(30)) // composed operations conserve the totals
	l.apply(kvwire.OpPush, 5, ok())
	if l != (ledger{mapN: 1, mapSum: 30, queueN: 1}) {
		t.Fatalf("ledger = %+v", l)
	}
	// A warm server: the totals before do not matter, only the change.
	before := audit{mapN: 1000, mapSum: 5, queueN: 7}
	if err := l.check(before, audit{mapN: 1001, mapSum: 35, queueN: 8}); err != nil {
		t.Errorf("matching delta rejected: %v", err)
	}
	if err := l.check(before, audit{mapN: 1002, mapSum: 35, queueN: 8}); err == nil {
		t.Error("an extra map entry went unnoticed")
	}
	if err := l.check(before, audit{mapN: 1001, mapSum: 36, queueN: 8}); err == nil {
		t.Error("a changed value sum went unnoticed")
	}
	// Sums wrap like the server's.
	wrap := ledger{mapN: -1, mapSum: math.MaxUint64 - 9} // -10, wrapped
	if err := wrap.check(audit{mapN: 3, mapSum: 4}, audit{mapN: 2, mapSum: math.MaxUint64 - 5}); err != nil {
		t.Errorf("wrapping sum rejected: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, failed float64) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for seed := 0; seed < 4; seed++ {
			rec := record{Workload: "lib_qs_move", Seed: uint64(seed), Valid: true}
			rec.Correct, rec.Attempted, rec.Failed, rec.Metrics = true, 1000, uint64(failed), metrics{}
			rec.Metrics.fill(endToEnd)
			rec.Metrics.set("ops_per_s", ops*(1+float64(seed)/1000))
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", 1000, 0)
	for _, tc := range []struct {
		name   string
		other  string
		code   int
		expect string
	}{
		{"same", write("same.jsonl", 1001, 0), 0, "ok"},
		{"slower within the bound", write("near.jsonl", 950, 0), 0, "ok"},
		{"slower beyond the bound", write("slow.jsonl", 700, 0), 1, "regressed"},
		{"faster", write("fast.jsonl", 1500, 0), 0, "ok"},
		{"failures appear", write("fail.jsonl", 1000, 3), 1, "regressed"},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(base, tc.other, &stdout, &stderr); code != tc.code || !strings.Contains(stdout.String(), tc.expect) {
			t.Errorf("%s: exit %d (want %d)\n%s%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
	}
}

// hungWorkload never finishes its run until released.
type hungWorkload struct {
	libBase
	release chan struct{}
}

func (w *hungWorkload) setUp() error { return nil }
func (w *hungWorkload) run(c *clock) {
	w.ws[0].live.Store(7) // the progress of the round the watchdog will cut
	<-w.release
}
func (w *hungWorkload) verify() []string { return nil }

// TestWatchdogCutsAHungPass checks that a pass that never ends is cut,
// reported as incorrect with its operations failed, and that the run
// still prints a result.
func TestWatchdogCutsAHungPass(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	workloads["test_hung"] = func(_ context.Context, p plan, seed uint64, _ string) workload {
		w := &hungWorkload{release: release}
		w.init(p, seed)
		return w
	}
	defer delete(workloads, "test_hung")
	res, code := lastResult(t, "-workload", "test_hung", "-quick", "-build-dir", t.TempDir())
	if code != 1 || res.Correct || res.Failed != 7 || res.Attempted == 0 {
		t.Errorf("exit %d, correct=%v, attempted=%d, failed=%d; want exit 1, incorrect, 7 failed", code, res.Correct, res.Attempted, res.Failed)
	}
}
