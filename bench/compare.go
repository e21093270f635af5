package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// readRecords reads a -out file: one JSON record per line, at least one.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the driver's spread rule), and
// the median. Fewer than two values have no spread.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	med = median(s)
	n := len(s)
	if n < 2 {
		return med, med, med
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), med, at(3)
}

// side is one file's runs of one workload.
type side struct {
	values             map[string][]float64
	attempted, failed  uint64
	incorrect, invalid int
}

func sides(recs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		if r.Trace != 0 {
			continue // per-layer metrics have no bound
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		if !r.Correct {
			s.incorrect++
		}
		if !r.Valid {
			s.invalid++
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, how much worse B is than A, the larger run-to-run spread and
// the bound, and a verdict: ok, regressed (worse by more than the
// bound), or unresolved (the spread is wider than the bound, so the
// comparison cannot tell). Any regression, any increase of the failure
// ratio and any incorrect or invalid run makes the exit code 1.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	recsA, errA := readRecords(pathA)
	recsB, errB := readRecords(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, b := sides(recsA), sides(recsB)
	bad := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tspread\tbound\tverdict\t")
	for _, wl := range workloadNames {
		sa, sb := a[wl], b[wl]
		if sa == nil || sb == nil {
			if sa != nil || sb != nil {
				fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tmissing on one side\t\n", wl)
				bad = true
			}
			continue
		}
		for _, d := range endToEnd {
			q1a, ma, q3a := quartiles(sa.values[d.name])
			q1b, mb, q3b := quartiles(sb.values[d.name])
			worse := ratio(mb-ma, ma)
			if d.better == "higher" {
				worse = -worse
			}
			spread := max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb))
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict, bad = "regressed", true
			case spread > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
				wl, d.name, ma, d.unit, mb, d.unit, 100*worse, 100*spread, 100*d.bound, verdict)
		}
		fa, fb := ratio(float64(sa.failed), float64(sa.attempted)), ratio(float64(sb.failed), float64(sb.attempted))
		verdict := "ok"
		if fb > fa {
			verdict, bad = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.3g\t%.3g\t-\t-\tany increase\t%s\t\n", wl, fa, fb, verdict)
		if n := sa.incorrect + sb.incorrect; n > 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t%d runs failed verification\t\n", wl, n)
			bad = true
		}
		if n := sa.invalid + sb.invalid; n > 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t%d runs invalid (generator late or behind)\t\n", wl, n)
			bad = true
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}
