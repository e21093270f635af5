// Command tracecheck validates and converts trace files (the JSONL
// written by kvserver -trace; see internal/obs and
// docs/observability.md). A trace file mixes two record types on
// one timeline: descriptor-protocol events and request spans (lines
// carrying a top-level "span":1 key).
//
// It parses the whole file strictly — any malformed line, unknown
// event kind or unknown span stage fails the run — prints per-kind
// event counts, and exits nonzero if a -require'd kind is absent,
// which is how the CI observability smoke asserts that helping
// actually happened under a fault rule:
//
//	tracecheck -require help -require publish /tmp/kvtrace.jsonl
//
// Span records are validated for coherent accounting: stage times must
// be non-negative (so the per-stage timeline is monotonic), the wall
// time non-negative, and the stage sum must not exceed the wall time
// beyond clock-read slack — a span whose parts exceed its whole is
// corrupt. Unattributed gaps (wall time no stage claims) are reported
// but don't fail the run: they are scheduler/bookkeeping time.
//
// -slowest N summarizes the N slowest spans, slowest first, each with
// its dominant stage and full stage breakdown — the tail-forensics
// entry point when you have a trace file instead of a live server to
// ask SLOW.
//
// -chrome FILE additionally converts the trace to the Chrome
// trace_event format: protocol events as instants, each span as one
// duration slice per stage on its serving thread's row. Load the
// result in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/obs"
)

// sumSlackNS tolerates the clock reads between stage boundaries when
// checking that a span's stage sum does not exceed its wall time.
const sumSlackNS = int64(1e6) // 1ms

// requireFlags collects repeatable -require event kinds.
type requireFlags []string

func (f *requireFlags) String() string { return fmt.Sprint(*f) }
func (f *requireFlags) Set(s string) error {
	if _, ok := obs.KindFromString(s); !ok {
		return fmt.Errorf("unknown event kind %q", s)
	}
	*f = append(*f, s)
	return nil
}

func main() {
	var require requireFlags
	chrome := flag.String("chrome", "", "also convert the trace to Chrome trace_event JSON at this path")
	slowest := flag.Int("slowest", 0, "summarize the N slowest spans with their stage breakdown (0 = off)")
	flag.Var(&require, "require", "event kind that must appear at least once (repeatable): publish, help, commit, abort, recycle, map-grow")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require kind]... [-slowest N] [-chrome out.json] trace.jsonl")
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	events, spans, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}

	counts := make(map[string]int)
	for _, ev := range events {
		counts[ev.Kind.String()]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("tracecheck: %s: %d events, %d spans\n", flag.Arg(0), len(events), len(spans))
	for _, k := range kinds {
		fmt.Printf("  %-12s %d\n", k, counts[k])
	}

	ok := true
	for _, k := range require {
		if counts[k] == 0 {
			fmt.Fprintf(os.Stderr, "tracecheck: required event kind %q absent\n", k)
			ok = false
		}
	}
	if !validateSpans(spans) {
		ok = false
	}

	if *slowest > 0 {
		printSlowest(spans, *slowest)
	}

	if *chrome != "" {
		out, err := os.Create(*chrome)
		if err == nil {
			err = repro.WriteChromeTraceWith(out, events, spans)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(fmt.Errorf("-chrome: %w", err))
		}
		fmt.Printf("tracecheck: chrome trace written to %s\n", *chrome)
	}
	if !ok {
		os.Exit(1)
	}
}

// validateSpans checks every span's latency accounting: impossible
// records (negative stages or wall, missing request id, stage sum
// exceeding wall beyond clock slack) fail the run; unattributed wall
// time is only reported.
func validateSpans(spans []obs.Span) bool {
	ok := true
	var gaps int
	for _, sp := range spans {
		var sum int64
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if sp.Stage[st] < 0 {
				fmt.Fprintf(os.Stderr, "tracecheck: span req=%d: negative %s stage (%dns)\n",
					sp.Req, st, sp.Stage[st])
				ok = false
			}
			sum += sp.Stage[st]
		}
		if sp.WallNS < 0 {
			fmt.Fprintf(os.Stderr, "tracecheck: span req=%d: negative wall time (%dns)\n", sp.Req, sp.WallNS)
			ok = false
		}
		if sp.Req == 0 {
			fmt.Fprintf(os.Stderr, "tracecheck: span with request id 0 (reserved for \"no request\")\n")
			ok = false
		}
		if sum > sp.WallNS+sumSlackNS {
			fmt.Fprintf(os.Stderr, "tracecheck: span req=%d: stage sum %dns exceeds wall %dns\n",
				sp.Req, sum, sp.WallNS)
			ok = false
		}
		// Wall time no stage claims: scheduler or bookkeeping slop,
		// worth surfacing when it stops being negligible.
		if gap := sp.WallNS - sum; gap > sumSlackNS && gap > sp.WallNS/10 {
			gaps++
		}
	}
	if gaps > 0 {
		fmt.Printf("tracecheck: %d/%d spans have >10%% unattributed wall time\n", gaps, len(spans))
	}
	return ok
}

// printSlowest summarizes the n slowest spans, slowest first.
func printSlowest(spans []obs.Span, n int) {
	sorted := make([]obs.Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].WallNS > sorted[j].WallNS })
	if n > len(sorted) {
		n = len(sorted)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("tracecheck: %d slowest spans:\n", n)
	for _, sp := range sorted[:n] {
		fmt.Printf("  req=%d tid=%d op=%s status=%s wall=%.1fus dominant=%s",
			sp.Req, sp.TID, sp.Op, sp.Status, us(sp.WallNS), sp.Dominant())
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			fmt.Printf(" %s=%.1fus", st, us(sp.Stage[st]))
		}
		fmt.Printf(" kcas=%d/%d/%d (publish/help/abort)\n", sp.Publishes, sp.Helps, sp.Aborts)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
