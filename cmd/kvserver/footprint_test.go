package main

// The server's footprint: what a warm server allocates per request, what
// its binary links, and the METRICS series that show its heap.

import (
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvwire"
	"repro/internal/obs"
	"repro/internal/verify"
)

// TestNoHTTPStack: kvserver links neither net/http nor crypto/tls. With
// x509 they are more than half of a binary that links them, and nothing
// the server does needs them: -cpuprofile uses runtime/pprof alone. It
// links neither net nor runtime/cgo either: net's name resolver is the
// one user of cgo in its graph, and it makes the binary load libc.
func TestNoHTTPStack(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "net/http", "crypto/tls", "net", "runtime/cgo":
			t.Errorf("kvserver depends on %s", dep)
		}
	}
}

// TestExecSteadyStateNoAllocs: with spans off, a warm server serves
// ≥ 10 k requests of each data verb — GET, PUT, DEL, PUSH, POP, MOVE,
// XFER and DRAIN — without one allocation. A server that allocates per
// request grows its heap to the collector's goal between cycles, and
// that goal is its resident size. Counted with runtime.MemStats over
// every request (verify.Mallocs), not testing.AllocsPerRun, whose
// integer average hides one allocation in a few hundred requests. On
// failure, find the allocation with -memprofile and -memprofilerate=1.
func TestExecSteadyStateNoAllocs(t *testing.T) {
	const pairs = 256 // 512 keys over 8 shards × 256 buckets: no map grows
	s := NewServer(Config{Tenants: 2, Workers: 1, Shards: 8, Buckets: 256})
	defer s.Close()
	w := <-s.workers
	// One cycle per key pair (a, b) leaves the server as it found it. A
	// pair whose target keys share an insert gap answers XFER with FAIL
	// and stays in tenant 1, where the next passes' MOVEs FAIL on it: still requests
	// served, and still in steady state.
	var lines [][]byte
	for i := 0; i < pairs; i++ {
		a, b := 2*i, 2*i+1
		for _, l := range []string{
			fmt.Sprintf("PUT 0 %d %d", a, a+1), fmt.Sprintf("PUT 0 %d %d", b, b+1),
			fmt.Sprintf("GET 0 %d", a),
			fmt.Sprintf("MOVE 0 1 %d %d", a, a), fmt.Sprintf("MOVE 0 1 %d %d", b, b),
			fmt.Sprintf("XFER 1 0 %d,%d %d,%d", a, b, a, b),
			fmt.Sprintf("DEL 0 %d", a), fmt.Sprintf("DEL 0 %d", b),
			fmt.Sprintf("PUSH 0 %d", a), fmt.Sprintf("PUSH 0 %d", b),
			"DRAIN 0 1 2", "POP 1", "POP 1",
		} {
			lines = append(lines, []byte(l))
		}
	}
	var req kvwire.Request
	var sp obs.Span
	buf := make([]byte, 0, 64<<10)
	pass := func() {
		for _, line := range lines {
			resp := s.exec(w, &req, line, buf[:0], &sp)
			if bytes.HasPrefix(resp, []byte("ERR")) || bytes.HasPrefix(resp, []byte("BUSY")) {
				t.Fatalf("%s: %s", line, resp)
			}
		}
	}
	// Warm-up as long as the count: node and descriptor carving, scan
	// buffers, type-assertion caches (verify.Mallocs).
	const passes = 40 // × 256 cycles: ≥ 10 k GETs, XFERs and DRAINs, 20 k of the rest
	if n := verify.Mallocs(passes, passes, pass); n != 0 {
		t.Fatalf("%d allocations over %d requests, want 0", n, passes*len(lines))
	}
}

// TestIdleServerNoAllocs: a server with spans on runs no periodic work
// (it has no ticker), so once it has served a few requests and gone
// idle the process allocates nothing.
func TestIdleServerNoAllocs(t *testing.T) {
	_, l := servePipes(t, Config{Tenants: 1, Workers: 2, Spans: true})
	client, in, _ := l.dial(t)
	if _, err := client.Write([]byte("PUT 0 1 11\nGET 0 1\n")); err != nil {
		t.Fatal(err)
	}
	wantLines(t, in, "OK", "OK 11")
	if n := verify.Mallocs(1, 3, func() { time.Sleep(300 * time.Millisecond) }); n != 0 {
		t.Fatalf("an idle server allocated %d times in 900 ms", n)
	}
}

// TestMetricsFootprintSeries: METRICS carries the process's heap in use
// (a gauge) and its GC cycle count (a counter), read at scrape time.
func TestMetricsFootprintSeries(t *testing.T) {
	s := NewServer(Config{Tenants: 1, Workers: 1})
	defer s.Close()
	scrape := func() map[string]uint64 {
		vals := map[string]uint64{}
		for _, line := range strings.Split(string(s.metricsText(nil)), "\n") {
			if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "go_") {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				vals[name] = n
			}
		}
		return vals
	}
	before := scrape()
	runtime.GC()
	after := scrape()
	if before["go_heap_inuse_bytes"] == 0 || after["go_heap_inuse_bytes"] == 0 {
		t.Errorf("go_heap_inuse_bytes reads 0: %v then %v", before, after)
	}
	if after["go_gc_cycles_total"] <= before["go_gc_cycles_total"] {
		t.Errorf("go_gc_cycles_total %d → %d across runtime.GC()", before["go_gc_cycles_total"], after["go_gc_cycles_total"])
	}
	text := string(s.metricsText(nil))
	for _, want := range []string{"# TYPE go_heap_inuse_bytes gauge", "# TYPE go_gc_cycles_total counter"} {
		if !strings.Contains(text, want) {
			t.Errorf("METRICS lacks %q", want)
		}
	}
}
