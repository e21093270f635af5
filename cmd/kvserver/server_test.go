package main

// End-to-end smoke coverage for the service: an in-process server on a
// loopback listener, concurrent raw-TCP clients running the mixed
// get/put/del + move/transfer/push/pop/drain workload, and a two-level
// conservation check — the wire-level AUDIT totals against
// response-tracked expectations, then a direct in-process sweep of the
// tenant maps asserting every tracked value is present in EXACTLY one
// tenant map (a moved or transferred entry may change maps, never
// duplicate or vanish). Run under -race in CI.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/arena"
	"repro/internal/kvwire"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// client is one test connection with response parsing.
type client struct {
	conn net.Conn
	in   *bufio.Scanner
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &client{conn: conn, in: bufio.NewScanner(conn)}
}

func (c *client) roundTrip(t *testing.T, line string, values bool) kvwire.Response {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("send %q: %v", line, err)
	}
	if !c.in.Scan() {
		t.Fatalf("no response to %q: %v", line, c.in.Err())
	}
	r, err := kvwire.ParseResponse(c.in.Text(), values)
	if err != nil {
		t.Fatalf("response to %q: %v", line, err)
	}
	return r
}

// ledger tracks, from successful responses only, the values that must
// be live in the tenant maps / queues when the run quiesces. Entries
// are signed per-value deltas (+1 per successful PUT, −1 per
// successful DEL), not a set: the ledger's mutex is taken after the
// server's linearization, so two clients racing PUT/DEL on one key can
// reach the ledger in the opposite order — deltas commute, set
// add/remove does not. Values are globally unique tokens, so at
// quiesce each delta must be 0 (created then deleted) or 1 (live);
// anything else is itself a conservation violation.
type ledger struct {
	mu     sync.Mutex
	mapped map[uint64]int
	queued int64
}

func (l *ledger) put(v uint64) {
	l.mu.Lock()
	l.mapped[v]++
	l.mu.Unlock()
}

func (l *ledger) del(v uint64) {
	l.mu.Lock()
	l.mapped[v]--
	l.mu.Unlock()
}

func (l *ledger) queue(delta int64) {
	l.mu.Lock()
	l.queued += delta
	l.mu.Unlock()
}

// live returns the values with delta 1, failing on any other nonzero
// delta (a value deleted twice or never created).
func (l *ledger) live(t *testing.T) map[uint64]struct{} {
	t.Helper()
	out := make(map[uint64]struct{})
	for v, d := range l.mapped {
		switch d {
		case 0:
		case 1:
			out[v] = struct{}{}
		default:
			t.Fatalf("value %d has impossible ledger delta %d", v, d)
		}
	}
	return out
}

func TestKVServerE2E(t *testing.T) {
	const (
		tenants = 3
		clients = 6
		opsEach = 1500
		keys    = 64 // small key range per tenant → real collisions
	)
	s := NewServer(Config{Tenants: tenants, Workers: clients + 2, Shards: 2, Buckets: 2})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	led := &ledger{mapped: make(map[uint64]int)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := dial(t, addr)
			defer cl.conn.Close()
			rng := xrand.New(uint64(c)*0x9e3779b97f4a7c15 + 1)
			seq := uint64(0)
			fresh := func() uint64 {
				seq++
				return uint64(c+1)<<40 | seq // globally unique token
			}
			for i := 0; i < opsEach; i++ {
				tn := int(rng.Uint64() % tenants)
				dt := (tn + 1 + int(rng.Uint64()%(tenants-1))) % tenants
				k := rng.Uint64() % keys
				var r kvwire.Response
				switch p := rng.Uint64() % 100; {
				case p < 30:
					v := fresh()
					r = cl.roundTrip(t, fmt.Sprintf("PUT %d %d %d", tn, k, v), true)
					if r.OK() {
						led.put(v)
					}
				case p < 45:
					r = cl.roundTrip(t, fmt.Sprintf("GET %d %d", tn, k), true)
				case p < 55:
					r = cl.roundTrip(t, fmt.Sprintf("DEL %d %d", tn, k), true)
					if r.OK() {
						led.del(r.Vals[0])
					}
				case p < 70:
					// The composed product op: entry leaves map tn, enters
					// map dt, atomically. The ledger is value-keyed, so a
					// successful move changes nothing in it — that is the
					// conservation claim under test.
					r = cl.roundTrip(t, fmt.Sprintf("MOVE %d %d %d %d", tn, dt, k, rng.Uint64()%keys), true)
				case p < 80:
					sk1, sk2 := k, (k+1+rng.Uint64()%(keys-1))%keys
					tk1, tk2 := rng.Uint64()%keys, (k+3)%keys
					if tk2 == tk1 {
						tk2 = (tk1 + 1) % keys
					}
					r = cl.roundTrip(t, fmt.Sprintf("XFER %d %d %d,%d %d,%d", tn, dt, sk1, sk2, tk1, tk2), true)
				case p < 85:
					r = cl.roundTrip(t, fmt.Sprintf("PUSH %d %d", tn, fresh()), true)
					if r.OK() {
						led.queue(1)
					}
				case p < 90:
					r = cl.roundTrip(t, fmt.Sprintf("POP %d", tn), true)
					if r.OK() {
						led.queue(-1)
					}
				default:
					r = cl.roundTrip(t, fmt.Sprintf("DRAIN %d %d %d", tn, dt, 1+rng.Uint64()%4), true)
				}
				if r.Status == "ERR" {
					t.Errorf("client %d: unexpected ERR %q", c, r.Raw)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Level 1: the wire-level audit against response-tracked totals.
	cl := dial(t, addr)
	defer cl.conn.Close()
	live := led.live(t)
	var wantSum uint64
	for v := range live {
		wantSum += v
	}
	r := cl.roundTrip(t, "AUDIT", true)
	if !r.OK() || len(r.Vals) != 3 {
		t.Fatalf("AUDIT: %+v", r)
	}
	if r.Vals[0] != uint64(len(live)) || r.Vals[1] != wantSum || r.Vals[2] != uint64(led.queued) {
		t.Fatalf("conservation audit failed: server maps=%d sum=%d queues=%d, ledger maps=%d sum=%d queues=%d",
			r.Vals[0], r.Vals[1], r.Vals[2], len(live), wantSum, led.queued)
	}

	// STATS must report per-tenant per-op percentiles for the traffic.
	st := cl.roundTrip(t, "STATS", false)
	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(st.Raw), &doc); err != nil {
		t.Fatalf("STATS JSON: %v\n%s", err, st.Raw)
	}
	var moveRows int
	for _, row := range doc.Rows {
		if row.Ops == 0 || row.P50NS < 0 || row.P999NS < row.P50NS {
			t.Fatalf("implausible stats row %+v", row)
		}
		if row.Op == "MOVE" {
			moveRows++
		}
	}
	if moveRows == 0 {
		t.Fatal("STATS reported no MOVE rows despite move traffic")
	}

	// Level 2: quiesce and sweep the maps in-process — every ledger
	// value present, no value twice (an entry lives in exactly one
	// tenant map even after arbitrary moves and transfers).
	s.Close()
	w := <-s.workers
	seen := make(map[uint64]int)
	for tn := 0; tn < tenants; tn++ {
		for _, k := range s.maps[tn].Keys(w.th) {
			if v, ok := s.maps[tn].Contains(w.th, k); ok {
				seen[v]++
			}
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("value %d present in %d map slots (duplicated by a move?)", v, n)
		}
		if _, ok := live[v]; !ok {
			t.Errorf("value %d in a map but not live in the ledger", v)
		}
	}
	for v := range live {
		if seen[v] == 0 {
			t.Errorf("ledger value %d lost (in no tenant map)", v)
		}
	}
}

// TestServerProtocolErrors checks that malformed requests produce ERR
// without poisoning the connection, and that the one request the server
// cannot frame — an over-long line — gets an ERR before the close.
func TestServerProtocolErrors(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, addr)
	defer cl.conn.Close()
	// The DRAIN line once reached make([]uint64, n) and killed the process.
	for _, bad := range []string{"WAT 1 2", "GET 9 1", "MOVE 0 0 1 1", "PUT 0 x y", "DRAIN 0 1 9223372036854775807"} {
		if r := cl.roundTrip(t, bad, false); r.Status != "ERR" {
			t.Errorf("%q: got %q, want ERR", bad, r.Status)
		}
	}
	// The connection must still work.
	if r := cl.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after errors: %+v", r)
	}
	if r := cl.roundTrip(t, "PUT 1 5 500", false); !r.OK() {
		t.Fatalf("PUT after errors: %+v", r)
	}
	if r := cl.roundTrip(t, "GET 1 5", true); !r.OK() || r.Vals[0] != 500 {
		t.Fatalf("GET after errors: %+v", r)
	}
	if !strings.HasPrefix(cl.roundTrip(t, "STATS", false).Raw, "{") {
		t.Fatal("STATS did not return JSON")
	}

	// A request line over the 64 KiB cap is answered with an ERR and the
	// connection closed (it used to be closed silently); a request before
	// it in the same batch is answered first. The line is exactly the cap
	// with no newline, so the server has read all of it when it gives up
	// and the close is an orderly one.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append([]byte("PING\n"), bytes.Repeat([]byte("9"), maxLine)...)); err != nil {
		t.Fatal(err)
	}
	in := bufio.NewReader(conn)
	wantLines(t, in, "OK", "ERR line too long")
	wantClosed(t, in)
}

// TestServerXferRepeatedKeyIsERR: an XFER that repeats a key within a
// list is malformed — TransferKeys would panic on it, and nothing
// recovers in a worker — so the parser answers ERR: the connection
// stays usable and nothing moved.
func TestServerXferRepeatedKeyIsERR(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 1, Shards: 1, Buckets: 2})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, addr)
	defer cl.conn.Close()
	for _, put := range []string{"PUT 0 5 50", "PUT 0 6 60"} {
		if r := cl.roundTrip(t, put, false); !r.OK() {
			t.Fatalf("%s: %+v", put, r)
		}
	}
	before := cl.roundTrip(t, "AUDIT", true)
	for _, bad := range []string{"XFER 0 1 5,5 6,7", "XFER 0 1 5,6 7,7"} {
		if r := cl.roundTrip(t, bad, false); r.Status != "ERR" {
			t.Errorf("%q: got %+v, want ERR", bad, r)
		}
	}
	if r := cl.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after the rejected XFERs: %+v", r)
	}
	if after := cl.roundTrip(t, "AUDIT", true); !after.OK() || !slices.Equal(after.Vals, before.Vals) {
		t.Fatalf("AUDIT %v after the rejected XFERs, want %v", after.Vals, before.Vals)
	}
	if r := cl.roundTrip(t, "GET 0 5", true); !r.OK() || r.Vals[0] != 50 {
		t.Fatalf("GET 0 5 after the rejected XFERs: %+v", r)
	}
}

// exhaustArena is the arena size at which the setup thread's first node
// carve (construction) and one worker's leave nothing: two per-thread
// batches past the reserved prefix, so the second worker's first node
// allocation finds the arena empty.
const exhaustArena = arena.ReservedIndexes + 2*mm.LocalListCap

// TestServerBusyOnArenaExhaustion drives the runtime past its node
// capacity and asserts the degradation contract: the starved worker
// answers BUSY (not a crash, not a hung connection), node-free traffic
// keeps flowing on the same connection, and the robust counters record
// the rejections. The registry is on in every server, so STATS' obs
// block and METRICS carry the same busy_total.
func TestServerBusyOnArenaExhaustion(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Arena: exhaustArena})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	c1 := dial(t, addr)
	defer c1.conn.Close()
	// c1's worker carves the last batch of nodes.
	if r := c1.roundTrip(t, "PUT 0 1 10", false); !r.OK() {
		t.Fatalf("carving PUT: %+v", r)
	}

	c2 := dial(t, addr)
	defer c2.conn.Close()
	r := c2.roundTrip(t, "PUT 0 2 20", false)
	if r.Status != "BUSY" {
		t.Fatalf("starved worker: got %q, want BUSY", r.Status)
	}
	if !r.Retryable() {
		t.Fatal("BUSY must be retryable")
	}
	// The starved worker's connection is still serviceable for ops that
	// take no node …
	if r := c2.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after BUSY: %+v", r)
	}
	if r := c2.roundTrip(t, "GET 0 2", false); r.Status != "NF" {
		t.Fatalf("GET after BUSY: %+v", r)
	}
	// … and the worker holding nodes is unaffected.
	if r := c1.roundTrip(t, "PUT 0 5 500", false); !r.OK() {
		t.Fatalf("healthy worker PUT: %+v", r)
	}
	if r := c1.roundTrip(t, "MOVE 0 1 5 5", true); !r.OK() || r.Vals[0] != 500 {
		t.Fatalf("healthy worker MOVE: %+v", r)
	}

	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(c1.roundTrip(t, "STATS", false).Raw), &doc); err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if doc.Robust == nil || doc.Robust.Busy == 0 {
		t.Fatalf("robust counters missing the BUSY: %+v", doc.Robust)
	}
	if got, ok := doc.Obs["busy_total"]; !ok || got != doc.Robust.Busy {
		t.Fatalf("STATS obs busy_total = %d (present %v), robust busy = %d", got, ok, doc.Robust.Busy)
	}
	if _, err := fmt.Fprintln(c1.conn, "METRICS"); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("busy_total %d", doc.Robust.Busy)
	found := false
	for c1.in.Scan() && c1.in.Text() != "# EOF" {
		found = found || c1.in.Text() == want
	}
	if !found {
		t.Fatalf("METRICS lacks %q", want)
	}
}

// TestServerTimeoutAfterDeadline: with a service deadline configured,
// persistent exhaustion is retried until the deadline and then
// answered TIMEOUT — still guaranteed unexecuted.
func TestServerTimeoutAfterDeadline(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2,
		Arena: exhaustArena, Deadline: 30 * time.Millisecond})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	c1 := dial(t, addr)
	defer c1.conn.Close()
	if r := c1.roundTrip(t, "PUT 0 1 10", false); !r.OK() {
		t.Fatalf("carving PUT: %+v", r)
	}
	c2 := dial(t, addr)
	defer c2.conn.Close()
	start := time.Now()
	r := c2.roundTrip(t, "PUT 0 2 20", false)
	if r.Status != "TIMEOUT" {
		t.Fatalf("starved worker with deadline: got %q, want TIMEOUT", r.Status)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("TIMEOUT answered before the deadline elapsed")
	}
	if r := c2.roundTrip(t, "PING", false); !r.OK() {
		t.Fatalf("PING after TIMEOUT: %+v", r)
	}
	if r := c2.roundTrip(t, "GET 0 2", false); r.Status != "NF" {
		t.Fatalf("timed-out PUT executed: GET answered %+v", r)
	}
}

// TestServerDrainAnswersMovedPrefixOnExhaustion: a DRAIN is a run of
// moves, so one that runs the arena dry part-way has executed the moves
// before it and answers them OK — BUSY would promise that nothing
// executed. The moved elements are in the target queue, and the audit
// still counts every element once.
func TestServerDrainAnswersMovedPrefixOnExhaustion(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Arena: exhaustArena})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	c := dial(t, addr)
	defer c.conn.Close()
	const n = 150 // leaves the worker's batch 50 nodes for the drain's inserts
	for v := 1; v <= n; v++ {
		if r := c.roundTrip(t, fmt.Sprintf("PUSH 0 %d", v), false); !r.OK() {
			t.Fatalf("PUSH %d: %+v", v, r)
		}
	}
	r := c.roundTrip(t, fmt.Sprintf("DRAIN 0 1 %d", n), true)
	if !r.OK() || len(r.Vals) == 0 || len(r.Vals) >= n {
		t.Fatalf("DRAIN that ran the arena dry: %s %v, want OK with the moved prefix", r.Status, r.Vals)
	}
	for i, v := range r.Vals {
		if v != uint64(i+1) {
			t.Fatalf("DRAIN value %d is %d, want %d", i, v, i+1)
		}
	}
	if p := c.roundTrip(t, "POP 1", true); !p.OK() || p.Vals[0] != 1 {
		t.Fatalf("POP 1 after the drain: %+v, want the first moved value", p)
	}
	if a := c.roundTrip(t, "AUDIT", true); !a.OK() || a.Vals[2] != n-1 {
		t.Fatalf("AUDIT after the drain and one POP: %+v, want %d queued", a, n-1)
	}
}

// TestServerExhaustionRecordNeverStale: the worker reads its thread's
// Exhausted record after every data request, so a BUSY does not leak
// into the next request — a PUT of an existing key answers EXISTS.
func TestServerExhaustionRecordNeverStale(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Arena: exhaustArena})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	c1 := dial(t, addr)
	defer c1.conn.Close()
	if r := c1.roundTrip(t, "PUT 0 1 10", false); !r.OK() {
		t.Fatalf("carving PUT: %+v", r)
	}
	c2 := dial(t, addr)
	defer c2.conn.Close()
	if r := c2.roundTrip(t, "PUSH 0 5", false); r.Status != "BUSY" {
		t.Fatalf("starved PUSH: got %q, want BUSY", r.Status)
	}
	if r := c2.roundTrip(t, "PUT 0 1 11", false); r.Status != "EXISTS" {
		t.Fatalf("starved PUT of an existing key after a BUSY: got %q, want EXISTS", r.Status)
	}
}

// TestServerSlowExemplarsAttributeStall is the tail-forensics
// acceptance check: under a kcas-publish stall rule, the SLOW verb's
// exemplars must attribute the slowest requests' latency to the
// execute stage (where the injected stall actually lives), carry the
// kcas publish deltas that did the work, and the per-stage histograms
// must reach both STATS and METRICS.
func TestServerSlowExemplarsAttributeStall(t *testing.T) {
	plan, err := repro.ParseFaultPlan([]string{"kcas-publish:stall=2ms:every=2"})
	if err != nil {
		t.Fatal(err)
	}
	// SpanTopK 8 < the stalled-request count, so the exemplar buffer
	// holds only genuinely stalled requests once traffic quiesces. Trace
	// is on for spans_dropped_total, a series of the trace dump's rings.
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2,
		Fault: plan, Spans: true, SpanTopK: 8, Trace: true})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	cl := dial(t, addr)
	defer cl.conn.Close()
	const moves = 32
	for i := 0; i < moves; i++ {
		if r := cl.roundTrip(t, fmt.Sprintf("PUT 0 %d %d", i, 1000+i), false); !r.OK() {
			t.Fatalf("PUT %d: %+v", i, r)
		}
	}
	// Every second MOVE's descriptor publish stalls 2ms: execute-stage
	// time the span layer must attribute.
	for i := 0; i < moves; i++ {
		if r := cl.roundTrip(t, fmt.Sprintf("MOVE 0 1 %d %d", i, i), false); !r.OK() {
			t.Fatalf("MOVE %d: %+v", i, r)
		}
	}

	r := cl.roundTrip(t, "SLOW", false)
	if !r.OK() {
		t.Fatalf("SLOW: %+v", r)
	}
	var slow kvwire.SlowDoc
	if err := json.Unmarshal([]byte(r.Raw), &slow); err != nil {
		t.Fatalf("SLOW JSON: %v\n%s", err, r.Raw)
	}
	if len(slow.Exemplars) == 0 {
		t.Fatal("SLOW returned no exemplars despite stalled traffic")
	}
	execDominant, published := 0, 0
	for _, sp := range slow.Exemplars {
		if sp.Req == 0 || sp.Op == "" || sp.WallNS <= 0 {
			t.Fatalf("malformed exemplar %+v", sp)
		}
		var sum int64
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if sp.Stage[st] < 0 {
				t.Fatalf("exemplar req=%d: negative %s stage", sp.Req, st)
			}
			sum += sp.Stage[st]
		}
		if sum > sp.WallNS+int64(time.Millisecond) {
			t.Fatalf("exemplar req=%d: stage sum %d exceeds wall %d", sp.Req, sum, sp.WallNS)
		}
		if sp.Dominant() == obs.StageExec {
			execDominant++
		}
		if sp.Publishes > 0 {
			published++
		}
	}
	if 2*execDominant <= len(slow.Exemplars) {
		t.Fatalf("only %d/%d exemplars attribute their latency to the execute stage",
			execDominant, len(slow.Exemplars))
	}
	if published == 0 {
		t.Fatal("no exemplar carries a kcas publish delta despite MOVE traffic")
	}

	// The per-stage histograms surface in STATS …
	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(cl.roundTrip(t, "STATS", false).Raw), &doc); err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if len(doc.Stages) != int(obs.NumStages) {
		t.Fatalf("STATS has %d stage rows, want %d: %+v", len(doc.Stages), obs.NumStages, doc.Stages)
	}
	var execRow *kvwire.StageRow
	for i := range doc.Stages {
		if doc.Stages[i].Stage == "execute" {
			execRow = &doc.Stages[i]
		}
	}
	if execRow == nil || execRow.Count == 0 || execRow.MaxNS < int64(time.Millisecond) {
		t.Fatalf("execute stage row does not reflect the stall: %+v", execRow)
	}

	// … and in METRICS (multi-line, framed by "# EOF"), alongside the
	// uptime and build-info series.
	if _, err := fmt.Fprintln(cl.conn, "METRICS"); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	for cl.in.Scan() {
		metrics.WriteString(cl.in.Text())
		metrics.WriteByte('\n')
		if cl.in.Text() == "# EOF" {
			break
		}
	}
	for _, want := range []string{
		"stage_execute_count_total", "stage_execute_p99_ns", "stage_queue_max_ns",
		"spans_dropped_total", "uptime_seconds", "build_info{", "gomaxprocs=",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("METRICS missing %q", want)
		}
	}
}

// TestServerGracefulDrain exercises the SIGTERM path in-process: after
// Drain the final STATS report is marked drained, the audit totals
// (taken on the retained setup thread) match what clients were told,
// and no new connections are accepted.
func TestServerGracefulDrain(t *testing.T) {
	s := NewServer(Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	cl := dial(t, addr)
	defer cl.conn.Close()
	var sum uint64
	for i := uint64(1); i <= 5; i++ {
		v := 1000 + i
		if r := cl.roundTrip(t, fmt.Sprintf("PUT 0 %d %d", i, v), false); !r.OK() {
			t.Fatalf("PUT %d: %+v", i, r)
		}
		sum += v
	}
	if r := cl.roundTrip(t, "MOVE 0 1 3 3", true); !r.OK() {
		t.Fatalf("MOVE: %+v", r)
	}

	s.Drain()

	doc := s.Stats()
	if doc.Robust == nil || !doc.Robust.Drained {
		t.Fatalf("final stats not marked drained: %+v", doc.Robust)
	}
	mapN, mapSum, queueN := s.Audit(s.SetupThread())
	if mapN != 5 || mapSum != sum || queueN != 0 {
		t.Fatalf("post-drain audit %d/%d/%d, want 5/%d/0", mapN, mapSum, queueN, sum)
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("drained server accepted a new connection")
	}
}

// ---- pipelining: one socket write per readable batch ----

// countingConn is the server's end of a test connection: it counts the
// bytes handle reads and the socket writes it makes, and announces each
// write on writing before performing it.
type countingConn struct {
	net.Conn
	writes, readBytes atomic.Int64
	writing           chan struct{}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	select {
	case c.writing <- struct{}{}:
	default:
	}
	return c.Conn.Write(p)
}

// pipeListener serves in-memory net.Pipe connections. A pipe makes
// delivery deterministic where TCP is not: one client Write is taken
// whole by one server Read (the server reads into a 64 KiB buffer), and
// a server Write blocks until the client reads it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// dial connects a new client; reads on it give up after 10 s so a
// response that never comes fails the test instead of hanging it.
func (l *pipeListener) dial(t *testing.T) (client net.Conn, in *bufio.Reader, server *countingConn) {
	t.Helper()
	client, srv := net.Pipe()
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	server = &countingConn{Conn: srv, writing: make(chan struct{}, 1)}
	l.conns <- server
	t.Cleanup(func() { client.Close() })
	return client, bufio.NewReader(client), server
}

// servePipes starts a server on a pipeListener; the server is closed
// when the test ends unless the test drained it first.
func servePipes(t *testing.T, cfg Config) (*Server, *pipeListener) {
	t.Helper()
	s := NewServer(cfg)
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l
}

// serveTCP starts a server on a loopback listener.
func serveTCP(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s := NewServer(cfg)
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return s, addr
}

// wantLines reads len(want) response lines and compares them.
func wantLines(t *testing.T, in *bufio.Reader, want ...string) {
	t.Helper()
	for i, w := range want {
		line, err := in.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d of %d (want %q): %v", i+1, len(want), w, err)
		}
		if got := strings.TrimSuffix(line, "\n"); got != w {
			t.Fatalf("response %d of %d: got %q, want %q", i+1, len(want), got, w)
		}
	}
}

// wantClosed asserts the server has closed the connection with nothing
// more to read.
func wantClosed(t *testing.T, in *bufio.Reader) {
	t.Helper()
	if line, err := in.ReadString('\n'); err == nil || line != "" {
		t.Fatalf("connection still open: read %q, %v", line, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection not closed: %v", err)
	}
}

// TestServerFlushPerBatch counts socket writes: 16 request lines that
// arrive in one read are answered with exactly one write, the same 16
// sent one at a time by a client that waits for each answer take 16, and
// the server's own flushes_total/responses_total say the same.
func TestServerFlushPerBatch(t *testing.T) {
	s, l := servePipes(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	client, in, srv := l.dial(t)

	var batch []byte
	var want []string
	for i := 0; i < 16; i++ {
		batch = fmt.Appendf(batch, "PUT 0 %d %d\n", i, 100+i)
		want = append(want, "OK")
	}
	if _, err := client.Write(batch); err != nil {
		t.Fatal(err)
	}
	wantLines(t, in, want...)
	if n := srv.writes.Load(); n != 1 {
		t.Fatalf("16 requests delivered in one read took %d socket writes, want 1", n)
	}

	for i := 0; i < 16; i++ {
		if _, err := fmt.Fprintf(client, "GET 0 %d\n", i); err != nil {
			t.Fatal(err)
		}
		wantLines(t, in, fmt.Sprintf("OK %d", 100+i))
	}
	if n := srv.writes.Load(); n != 17 {
		t.Fatalf("16 requests sent one at a time took %d socket writes, want 16", n-1)
	}

	// The METRICS response is itself in flight when its snapshot is
	// taken, so it reports the 32 responses and 17 writes before it. One
	// client's traffic loses no linearization CAS.
	if _, err := fmt.Fprintln(client, "METRICS"); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	for line := ""; line != "# EOF\n"; {
		var err error
		if line, err = in.ReadString('\n'); err != nil {
			t.Fatalf("METRICS: %v", err)
		}
		metrics.WriteString(line)
	}
	for _, series := range []string{"flushes_total 17\n", "responses_total 32\n", "\ncas_retries_total 0\n"} {
		if !strings.Contains(metrics.String(), series) {
			t.Errorf("METRICS lacks %q", series)
		}
	}
	if obs := s.Stats().Obs; obs["flushes_total"] == 0 || obs["responses_total"] <= obs["flushes_total"] {
		t.Errorf("STATS obs block: flushes_total=%d responses_total=%d", obs["flushes_total"], obs["responses_total"])
	}
	if n, ok := s.Stats().Obs["cas_retries_total"]; !ok || n != 0 {
		t.Errorf("STATS obs block: cas_retries_total=%d (present %v), want 0", n, ok)
	}
}

// TestServerAnswersBeforePartialLine: a complete line followed by the
// beginning of the next is answered at once; the server does not wait
// for the rest of the second line with the first response unflushed.
func TestServerAnswersBeforePartialLine(t *testing.T) {
	_, l := servePipes(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
	client, in, _ := l.dial(t)
	if _, err := client.Write([]byte("PUT 0 1 11\nGE")); err != nil {
		t.Fatal(err)
	}
	wantLines(t, in, "OK")
	if _, err := client.Write([]byte("T 0 1\n")); err != nil {
		t.Fatal(err)
	}
	wantLines(t, in, "OK 11")
}

// TestServerPipelinedOrder sends well over a thousand mixed request
// lines in a single write — a parse error, a STATS whose answer
// overflows the write buffer, the multi-line METRICS and an unterminated
// last line among them — then half-closes. Every request gets its
// response, in order, and the connection ends after the last one.
func TestServerPipelinedOrder(t *testing.T) {
	const tenants, rounds = 4, 250
	_, addr := serveTCP(t, Config{Tenants: tenants, Workers: 2, Spans: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))

	type step struct{ req, want string } // want "" marks a response checked by hand
	var steps []step
	for i := 0; i < rounds; i++ {
		tn, dt, v := i%tenants, (i+1)%tenants, 1000+i
		steps = append(steps,
			step{fmt.Sprintf("PUT %d %d %d", tn, i, v), "OK"},
			step{fmt.Sprintf("MOVE %d %d %d %d", tn, dt, i, i), fmt.Sprintf("OK %d", v)},
			step{fmt.Sprintf("GET %d %d", dt, i), fmt.Sprintf("OK %d", v)},
			step{fmt.Sprintf("GET %d %d", tn, i), "NF"},
			step{fmt.Sprintf("PUSH %d %d", tn, v), "OK"},
			step{fmt.Sprintf("DRAIN %d %d 1", tn, dt), fmt.Sprintf("OK %d", v)},
			step{fmt.Sprintf("POP %d", dt), fmt.Sprintf("OK %d", v)},
		)
		if i == rounds/2 {
			steps = append(steps,
				step{"MOVE 0 0 1 1", "ERR MOVE requires two distinct tenants"},
				step{"STATS", ""}, step{"METRICS", ""},
				step{"", "ERR empty request"})
		}
	}
	steps = append(steps, step{"AUDIT", fmt.Sprintf("OK %d %d 0", rounds, rounds*1000+rounds*(rounds-1)/2)})
	steps = append(steps, step{"PING", "OK"})
	if len(steps) < 1000 {
		t.Fatalf("only %d request lines", len(steps))
	}
	var burst []byte
	for _, st := range steps {
		burst = append(append(burst, st.req...), '\n')
	}
	burst = burst[:len(burst)-1] // the last line goes unterminated
	go func() {
		conn.Write(burst) // an error here shows as a missing response below
		conn.(*net.TCPConn).CloseWrite()
	}()

	in := bufio.NewReaderSize(conn, 1<<16)
	for i, st := range steps {
		line, err := in.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d (%q): %v", i, st.req, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case st.want != "":
			if line != st.want {
				t.Fatalf("response %d: %q answered %q, want %q", i, st.req, line, st.want)
			}
		case st.req == "STATS":
			if !strings.HasPrefix(line, `OK {"`) || len(line) <= 4096 {
				t.Fatalf("STATS answered %d bytes %.40q, want JSON larger than the 4 KiB write buffer", len(line), line)
			}
		case st.req == "METRICS":
			for n := 0; line != "# EOF"; n++ {
				if strings.ContainsAny(line, "{}") && !strings.HasPrefix(line, "build_info{") || n > 1000 {
					t.Fatalf("METRICS line %d: %q", n, line)
				}
				if line, err = in.ReadString('\n'); err != nil {
					t.Fatalf("METRICS: %v", err)
				}
				line = strings.TrimSuffix(line, "\n")
			}
		}
	}
	wantClosed(t, in)
}

// TestServerSlowPipelinedClient: a client that pipelines requests and
// never reads a response cannot make the server buffer without bound —
// the server stops reading once its write blocks — and, when a write
// timeout is configured, is disconnected and counted as a slow client.
func TestServerSlowPipelinedClient(t *testing.T) {
	burst := bytes.Repeat([]byte("STATS\n"), 200_000) // 1.2 MB of requests, far more in responses

	t.Run("backpressure", func(t *testing.T) {
		_, l := servePipes(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2})
		client, _, srv := l.dial(t)
		go client.Write(burst) // blocks once the server stops reading; Cleanup closes client
		<-srv.writing
		// The server has entered its first socket write, which cannot
		// complete, and the handler reads nothing while it is in there: all
		// it holds is what its reads so far delivered and one write buffer
		// of responses.
		if n := srv.readBytes.Load(); n > maxLine {
			t.Fatalf("server read %d bytes from a client that reads nothing, want at most one %d-byte read buffer", n, maxLine)
		}
		if n := srv.writes.Load(); n != 1 {
			t.Fatalf("%d socket writes begun, want the server blocked in its first", n)
		}
	})

	t.Run("write timeout", func(t *testing.T) {
		s, l := servePipes(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2,
			WriteTimeout: 20 * time.Millisecond})
		client, _, _ := l.dial(t)
		// The write returns when the server, having timed out, closes its
		// end — by then it has counted the client.
		if _, err := client.Write(burst); err == nil {
			t.Fatal("server accepted 1.2 MB of requests from a client that reads nothing")
		}
		if n := s.Stats().Robust.SlowClients; n != 1 {
			t.Fatalf("slow_clients = %d, want 1", n)
		}
		if n := s.Stats().Obs["slow_clients_total"]; n != 1 {
			t.Fatalf("slow_clients_total = %d, want 1", n)
		}
	})

	// The same over listenTCP's sockets, whose deadline error is an
	// *os.PathError: socket buffers take the burst's first megabytes, so
	// the shed is awaited on the counter rather than on the client's write.
	t.Run("write timeout over TCP", func(t *testing.T) {
		s, addr := serveTCP(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2,
			WriteTimeout: 20 * time.Millisecond})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go conn.Write(burst) // ends when the server closes its end, or at the Close above
		for deadline := time.Now().Add(10 * time.Second); s.slowClients.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("a TCP client that reads nothing was not shed in 10 s")
			}
		}
	})
}

// TestServerKillMidBatch: a worker fault-killed (runtime.Goexit) in the
// middle of a pipelined batch still delivers the responses of the
// requests it had already executed before the connection drops.
func TestServerKillMidBatch(t *testing.T) {
	plan, err := repro.ParseFaultPlan([]string{"kcas-publish:kill:nth=1"})
	if err != nil {
		t.Fatal(err)
	}
	s, l := servePipes(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Fault: plan})
	client, in, _ := l.dial(t)
	// Only the MOVE publishes a descriptor; it never answers.
	if _, err := client.Write([]byte("PUT 0 1 11\nPUT 0 2 22\nGET 0 1\nMOVE 0 1 1 1\nGET 0 2\n")); err != nil {
		t.Fatal(err)
	}
	wantLines(t, in, "OK", "OK", "OK 11")
	wantClosed(t, in)
	if n := s.Stats().Robust.LostWorkers; n != 1 {
		t.Fatalf("lost_workers = %d, want 1", n)
	}
}

// TestServerGracefulDrainMidBatch: Drain arriving while a batch is being
// served lets the request in flight finish, delivers every response
// executed so far, and leaves the rest of the batch unexecuted.
func TestServerGracefulDrainMidBatch(t *testing.T) {
	plan, err := repro.ParseFaultPlan([]string{"kcas-publish:park:nth=1"})
	if err != nil {
		t.Fatal(err)
	}
	s, l := servePipes(t, Config{Tenants: 2, Workers: 2, Shards: 1, Buckets: 2, Fault: plan})
	client, in, _ := l.dial(t)
	if _, err := client.Write([]byte("PUT 0 1 11\nGET 0 1\nMOVE 0 1 1 1\nDEL 1 1\nGET 1 1\n")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); plan.Parked() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the MOVE never reached its park")
		}
	}
	drained := make(chan struct{})
	go func() {
		s.Drain() // releases the park
		close(drained)
	}()
	wantLines(t, in, "OK", "OK 11", "OK 11")
	wantClosed(t, in)
	<-drained
	if mapN, mapSum, _ := s.Audit(s.SetupThread()); mapN != 1 || mapSum != 11 {
		t.Fatalf("post-drain audit %d entries sum %d: the DEL after the drain point ran", mapN, mapSum)
	}
}

// appendLine appends one request line without allocating (fmt and
// kvwire.Request.Append box their arguments), so the benchmark's B/op
// and allocs/op columns are the server's.
func appendLine(buf []byte, verb string, args ...int) []byte {
	buf = append(buf, verb...)
	for _, a := range args {
		buf = strconv.AppendInt(append(buf, ' '), int64(a), 10)
	}
	return append(buf, '\n')
}

// BenchmarkServePipelined is the in-repo reproducer of the coalescing
// gain: one closed-loop loopback connection keeps window requests in
// flight (half GET, half MOVE between two tenants), one op is one
// request, and flushes/req is the server's socket writes per request —
// 1 at window=1, 1/16 at window=16.
func BenchmarkServePipelined(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			const keys = 1024
			s, addr := serveTCP(b, Config{Tenants: 2, Workers: 2, Shards: 8, Buckets: 256})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			in := bufio.NewReader(conn)
			var buf []byte
			for k := 0; k < keys; k++ {
				buf = fmt.Appendf(buf, "PUT 0 %d %d\n", k, k)
			}
			conn.Write(buf)
			for k := 0; k < keys; k++ {
				if line, err := in.ReadSlice('\n'); err != nil || string(line) != "OK\n" {
					b.Fatalf("prefill: %q, %v", line, err)
				}
			}
			at := make([]int, keys) // the tenant holding each key
			flushes := s.flushes.Load()
			b.ResetTimer()
			for sent := 0; sent < b.N; {
				n := min(window, b.N-sent)
				buf = buf[:0]
				for i := 0; i < n; i++ {
					k := (sent + i) % keys
					if (sent+i)/keys%2 == 0 {
						buf = appendLine(buf, "GET", at[k], k)
					} else {
						buf = appendLine(buf, "MOVE", at[k], 1-at[k], k, k)
						at[k] = 1 - at[k]
					}
				}
				if _, err := conn.Write(buf); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if line, err := in.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte("OK ")) {
						b.Fatalf("request %d: %q, %v", sent+i, line, err)
					}
				}
				sent += n
			}
			b.StopTimer()
			b.ReportMetric(float64(s.flushes.Load()-flushes)/float64(b.N), "flushes/req")
		})
	}
}
