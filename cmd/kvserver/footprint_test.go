package main

// The server's footprint: what a warm server allocates per request, what
// its binary links, and the METRICS series that show its heap.

import (
	"bytes"
	"fmt"
	"maps"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// TestNoJSONEncoder: kvserver writes STATS, SLOW and its span lines
// with hand-written appenders (kvwire's Doc.AppendJSON and
// SlowDoc.AppendJSON, obs.Span.AppendJSON), so its binary links none of
// encoding/json's reflective encoder, ≈ 190 kB of text and rodata that
// a running server maps and keeps resident. obs still imports
// encoding/json for its readers, so the package graph cannot tell; the
// symbol table can.
func TestNoJSONEncoder(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "kvserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm: %v", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		// addr type name; a generic shape's name may hold spaces.
		if f := strings.Fields(line); len(f) >= 3 {
			name := strings.Join(f[2:], " ")
			if name == "encoding/json.Marshal" || strings.HasPrefix(name, "encoding/json.(*encodeState)") {
				t.Errorf("kvserver links %s", name)
			}
		}
	}
}

// TestExecSteadyStateNoAllocs: with spans off and on, a warm server
// serves ≥ 10 k requests of each data verb — GET, PUT, DEL, PUSH, POP,
// MOVE, XFER and DRAIN — without one allocation; with spans on, each
// request runs exec and then finishSpan. A server that allocates per
// request grows its heap to the collector's goal between cycles, and
// that goal is its resident size. Counted with runtime.MemStats over
// every request (verify.Mallocs), not testing.AllocsPerRun, whose
// integer average hides one allocation in a few hundred requests. On
// failure, find the allocation with -memprofile and -memprofilerate=1.
func TestExecSteadyStateNoAllocs(t *testing.T) {
	for _, spans := range []string{"off", "on"} {
		t.Run("spans="+spans, func(t *testing.T) {
			s := NewServer(Config{Tenants: 2, Workers: 1, Shards: 8, Buckets: 256, Spans: spans == "on"})
			defer s.Close()
			execSteadyStateNoAllocs(t, s)
		})
	}
}

func execSteadyStateNoAllocs(t *testing.T, s *Server) {
	const pairs = 256 // 512 keys over 8 shards × 256 buckets: no map grows
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
	buf := make([]byte, 0, 64<<10)
	pass := func() {
		for _, line := range lines {
			var sp obs.Span
			resp := s.exec(w, &req, line, buf[:0], &sp)
			if bytes.HasPrefix(resp, []byte("ERR")) || bytes.HasPrefix(resp, []byte("BUSY")) {
				t.Fatalf("%s: %s", line, resp)
			}
			if sp.Op != "" {
				s.finishSpan(w, &sp, 0)
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

// TestAuditNoAllocs: the conservation audit walks each map once and
// counts each queue, so on a populated server whose maps have grown it
// makes no Go allocation, whatever the number of entries.
func TestAuditNoAllocs(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 1, Shards: 2, Buckets: 2})
	defer s.Close()
	w := <-s.workers
	mixedTraffic(t, s, w, 5_000, 1024, 3)
	for tn := range s.maps {
		if grows, _, _ := s.maps[tn].Stats(); grows == 0 || s.maps[tn].Len(w.th) == 0 {
			t.Fatalf("tenant %d: %d grows, %d entries; want a populated map that has grown", tn, grows, s.maps[tn].Len(w.th))
		}
	}
	if n := verify.Mallocs(10, 100, func() { s.Audit(w.th) }); n != 0 {
		t.Fatalf("%d allocations over 100 audits, want 0", n)
	}
}

// TestStatsBytesBounded: STATS merges each histogram's counters straight
// into one scratch snapshot, so what a call allocates does not grow with
// the live (worker, tenant, op) cells, and SLOW keeps at most K spans
// while it merges the workers' exemplars. A server that never collects
// keeps every byte its STATS and SLOW polls allocate. Both verbs are
// measured through execControl into a 4 KiB response buffer, as a
// connection's write buffer offers it, so the document and its encoding
// are counted together. Here 4 workers serve every data verb on each of
// 4 tenants: 128 live cells, and with spans on 4 stage histograms and 32
// exemplars per worker as well.
func TestStatsBytesBounded(t *testing.T) {
	const (
		workers, tenants = 4, 4
		bound            = 32 << 10
	)
	for _, spans := range []bool{false, true} {
		t.Run(fmt.Sprintf("spans=%v", spans), func(t *testing.T) {
			s := NewServer(Config{Tenants: tenants, Workers: workers, Spans: spans})
			defer s.Close()
			var req kvwire.Request
			buf := make([]byte, 0, 4<<10)
			var w *worker
			for i := 0; i < workers; i++ {
				w = <-s.workers
				for tn := 0; tn < tenants; tn++ {
					dt := (tn + 1) % tenants
					for _, l := range []string{
						fmt.Sprintf("PUT %d %d 1", tn, i), fmt.Sprintf("GET %d %d", tn, i),
						fmt.Sprintf("MOVE %d %d %d %d", tn, dt, i, 100+i),
						fmt.Sprintf("XFER %d %d %d,%d %d,%d", tn, dt, i, 10+i, 200+i, 300+i),
						fmt.Sprintf("DEL %d %d", tn, i), fmt.Sprintf("PUSH %d %d", tn, i),
						fmt.Sprintf("DRAIN %d %d 1", tn, dt), fmt.Sprintf("POP %d", tn),
					} {
						var sp obs.Span
						if resp := s.exec(w, &req, []byte(l), buf[:0], &sp); bytes.HasPrefix(resp, []byte("ERR")) {
							t.Fatalf("%s: %s", l, resp)
						}
						if sp.Op != "" {
							s.finishSpan(w, &sp, 0)
						}
					}
				}
			}
			if rows := len(s.Stats().Rows); rows != tenants*9 {
				t.Fatalf("STATS has %d rows, want %d: 8 ops and an all row per tenant", rows, tenants*9)
			}
			for _, op := range []kvwire.Op{kvwire.OpStats, kvwire.OpSlow} {
				const calls = 20
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				var resp []byte
				for i := 0; i < calls; i++ {
					resp = s.execControl(w, op, buf[:0])
				}
				runtime.ReadMemStats(&m1)
				if (op == kvwire.OpStats || spans) && !bytes.HasPrefix(resp, []byte("OK {")) {
					t.Fatalf("%v answered %.40q", op, resp)
				}
				if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per > bound {
					t.Fatalf("%v allocates %d bytes per call (%d-byte response), want at most %d", op, per, len(resp), bound)
				} else {
					t.Logf("%v allocates %d bytes per call (%d-byte response)", op, per, len(resp))
				}
			}
		})
	}
}

// TestStatsConcurrentReports: STATS and METRICS calls from several
// goroutines share the server's spare scratch snapshot while a worker
// records. Each report merges into a snapshot no other report holds, so
// no stage row counts more spans than have finished. Run it under
// -race.
func TestStatsConcurrentReports(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 1, Spans: true})
	defer s.Close()
	w := <-s.workers
	stop := make(chan struct{})
	var done atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var req kvwire.Request
		buf := make([]byte, 0, 256)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var sp obs.Span
			s.exec(w, &req, []byte(fmt.Sprintf("PUT %d %d 1", i%2, i)), buf[:0], &sp)
			s.finishSpan(w, &sp, 0)
			done.Add(1)
		}
	}()
	var reporters sync.WaitGroup
	for g := 0; g < 3; g++ {
		reporters.Add(1)
		go func() {
			defer reporters.Done()
			for i := 0; i < 50; i++ {
				doc := s.Stats()
				finished := done.Load()
				for _, st := range doc.Stages {
					if st.Count > finished+1 {
						t.Errorf("stage %s counts %d spans of %d finished: a report merged into a snapshot another held",
							st.Stage, st.Count, finished)
						return
					}
				}
				s.metricsText(nil)
			}
		}()
	}
	reporters.Wait()
	close(stop)
	wg.Wait()
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

// sink keeps a map on the heap, where a returned map lives.
var sink map[string]uint64

// TestRegistrySnapshotSizedOnce: a registry Snapshot, which every
// STATS and METRICS call takes, makes its counters map at its final
// size. A map grown from empty through its doublings allocates each
// smaller table on the way. The registry here carries as many series as
// the server's, each a func that allocates nothing, so the map is all
// that Snapshot allocates.
func TestRegistrySnapshotSizedOnce(t *testing.T) {
	s := NewServer(Config{Tenants: 4, Workers: 4, Spans: true})
	defer s.Close()
	series := len(s.reg.Snapshot().Counters)
	reg := obs.NewRegistry(1)
	for i := 0; len(reg.Snapshot().Counters) < series; i++ {
		reg.AddFunc(fmt.Sprintf("series_%d_total", i), func() uint64 { return 0 })
	}
	names := slices.Collect(maps.Keys(reg.Snapshot().Counters))
	bytesPer := func(fn func()) (allocs float64, bytes uint64) {
		const calls = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			fn()
		}
		runtime.ReadMemStats(&m1)
		return testing.AllocsPerRun(calls, fn), (m1.TotalAlloc - m0.TotalAlloc) / calls
	}
	gotAllocs, gotBytes := bytesPer(func() { reg.Snapshot() })
	wantAllocs, wantBytes := bytesPer(func() {
		m := make(map[string]uint64, len(names))
		for _, n := range names {
			m[n] = 0
		}
		sink = m // returned, as Snapshot's map is
	})
	if gotAllocs > wantAllocs || gotBytes > wantBytes {
		t.Fatalf("Snapshot of %d series allocates %.0f times, %d bytes; a map made at that size %.0f times, %d bytes",
			series, gotAllocs, gotBytes, wantAllocs, wantBytes)
	}
	_, serverBytes := bytesPer(func() { s.reg.Snapshot() })
	t.Logf("%d series: %d bytes per Snapshot, %d bytes per server Snapshot", series, gotBytes, serverBytes)
}
