// Command kvload drives cmd/kvserver with an open-loop,
// coordinated-omission-safe workload and reports per-tenant, per-op
// latency percentiles.
//
// # Open loop, measured from intended start
//
// The generator fixes an arrival schedule up front: request i's
// intended send time is start + i/rate, independent of how fast the
// server answers. -conns connection workers pull request indices from
// a shared counter, sleep until each request's intended slot, and
// measure latency from the INTENDED time, not the actual send — so
// when the server (or the generator's own backlog) stalls, the wait
// shows up in the recorded tail instead of silently stretching the
// schedule. A closed-loop generator that issues request i+1 only after
// request i returns under-samples exactly the moments the server is
// slow (coordinated omission); this one cannot. Requests dispatched
// behind schedule are additionally counted as "late" so saturation is
// visible even before the percentiles move. See docs/measurement.md.
//
// # Workload
//
// Each request picks a tenant uniformly and an operation from -mix
// (get/put/del/push/pop + the composed move/transfer/drain; weights
// renormalize). Keys are uniform over -keys per tenant; PUT and PUSH
// values are globally unique tokens so the end-of-run conservation
// audit can use a value checksum.
//
// # Conservation audit
//
// With -audit (default), the run tracks every successful PUT/DEL/
// PUSH/POP from responses — counts and wrapping value-sums, which
// commute, so cross-connection response ordering cannot skew them —
// and compares the expectation against the change in the server's
// AUDIT totals between a baseline read before the prefill and a second
// read after the workers quiesce, so a server that already holds data
// audits the same as a fresh one. Composed MOVE/XFER/DRAIN traffic must
// leave all totals unchanged: that is the paper's composition claim
// (an element is in exactly one object at every instant) checked over
// the wire. A failed audit exits nonzero.
//
// # Output
//
// Human-readable percentile tables on stdout; -json FILE additionally
// writes the kvwire.Doc report (host_cpus/contended honesty
// fields, one row per tenant×op with p50/p99/p999/max ns, per-tenant
// and overall rollups, audit verdict). -slow N fetches the server-side
// view after the run: the per-stage latency breakdown (queue/parse/
// execute/degrade/write, echoed into the report's "stages" block) and
// the N slowest requests' spans from the SLOW verb, each tagged with
// its dominant stage — the server's answer to why the client-side tail
// is fat.
//
// Example, against a default server:
//
//	kvserver -addr 127.0.0.1:7070 -tenants 4 &
//	kvload -addr 127.0.0.1:7070 -tenants 4 -conns 8 -rate 20000 \
//	       -duration 10s -json kvload.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/kvwire"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/xrand"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "kvserver address")
		conns    = flag.Int("conns", 8, "connection workers")
		rate     = flag.Float64("rate", 5000, "total intended request rate (req/s)")
		duration = flag.Duration("duration", 10*time.Second, "run length (sets the request count at -rate)")
		requests = flag.Int("requests", 0, "exact request count (overrides -duration)")
		tenants  = flag.Int("tenants", 4, "tenant count (must match the server)")
		keys     = flag.Int("keys", 1024, "key range per tenant")
		mix      = flag.String("mix", "get=60,put=15,del=5,move=10,transfer=4,push=2,pop=2,drain=2",
			"operation weights (get,put,del,push,pop,move,transfer,drain)")
		prefill  = flag.Int("prefill", 256, "entries PUT per tenant map (and /4 PUSHed per queue) before the measured run")
		jsonPath = flag.String("json", "", "write the JSON report here")
		seed     = flag.Uint64("seed", 1, "workload RNG seed")
		audit    = flag.Bool("audit", true, "run the end-of-run conservation audit")
		timeout  = flag.Duration("timeout", 0, "per-request connection deadline (0 = none)")
		retries  = flag.Int("retries", 8, "max retries per request on BUSY/TIMEOUT (with jittered backoff)")
		metrics  = flag.String("metrics", "", "fetch the server's METRICS snapshot after the run and write the Prometheus text here")
		slowN    = flag.Int("slow", 0, "fetch the server's per-stage breakdown and SLOW tail exemplars after the run; print the slowest N with stage attribution (0 = off)")
	)
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}
	if *rate <= 0 || *conns < 1 || *tenants < 1 || *keys < 1 {
		fatal(fmt.Errorf("need -rate > 0, -conns/-tenants/-keys >= 1"))
	}
	total := *requests
	if total <= 0 {
		total = int(*rate * duration.Seconds())
	}
	if total < 1 {
		fatal(fmt.Errorf("schedule is empty: raise -rate, -duration or -requests"))
	}

	g := &generator{
		addr: *addr, conns: *conns, rate: *rate, total: total,
		tenants: *tenants, keys: uint64(*keys), weights: weights,
		prefill: *prefill, seed: *seed,
		timeout: *timeout, maxRetries: *retries,
		rec: latency.NewRecorder(*conns, *tenants, int(kvwire.OpCount)),
	}
	if *audit {
		if g.auditBase, err = g.auditTotals(); err != nil {
			fatal(fmt.Errorf("audit baseline: %w", err))
		}
	}
	if err := g.run(); err != nil {
		fatal(err)
	}

	doc := g.report(os.Stdout)
	if *audit {
		a, err := g.audit()
		if err != nil {
			fatal(fmt.Errorf("audit: %w", err))
		}
		doc.Audit = &a
		printAudit(a)
	}
	if *slowN > 0 {
		// Server-side attribution next to the client-side percentiles
		// above: the per-stage breakdown (echoed into the report's
		// "stages" block) and the slowest requests' spans, each with the
		// stage that dominated its wall time.
		if err := reportServerSide(*addr, &doc, *slowN); err != nil {
			fatal(fmt.Errorf("slow: %w", err))
		}
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *metrics != "" {
		// Fetched after the measured run and audit so the snapshot covers
		// every request the report accounts for.
		text, err := fetchMetrics(*addr)
		if err != nil {
			fatal(fmt.Errorf("metrics: %w", err))
		}
		if err := os.WriteFile(*metrics, []byte(text), 0o644); err != nil {
			fatal(err)
		}
	}
	if g.errs.Load() > 0 {
		fatal(fmt.Errorf("%d requests drew ERR responses", g.errs.Load()))
	}
	if doc.Audit != nil && !doc.Audit.Pass {
		if amb := g.ambiguous.Load(); amb > 0 {
			// An abandoned mutation may or may not have executed before
			// its connection died, so the expectations are not exact and
			// a mismatch is indeterminate rather than a conservation bug.
			fmt.Fprintf(os.Stderr,
				"kvload: audit mismatch with %d ambiguous mutations — indeterminate, not failing\n", amb)
		} else {
			fmt.Fprintln(os.Stderr, "kvload: CONSERVATION AUDIT FAILED")
			os.Exit(1)
		}
	}
}

// opWeights maps each data-path op to its share of traffic.
type opWeights [kvwire.OpCount]int

// parseMix parses "get=60,put=15,..." into weights.
func parseMix(s string) (opWeights, error) {
	names := map[string]kvwire.Op{
		"get": kvwire.OpGet, "put": kvwire.OpPut, "del": kvwire.OpDel,
		"push": kvwire.OpPush, "pop": kvwire.OpPop,
		"move": kvwire.OpMove, "transfer": kvwire.OpXfer, "drain": kvwire.OpDrain,
	}
	var w opWeights
	sum := 0
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return w, fmt.Errorf("bad -mix element %q", part)
		}
		op, ok := names[name]
		if !ok {
			return w, fmt.Errorf("unknown -mix op %q", name)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return w, fmt.Errorf("bad -mix weight %q", part)
		}
		w[op] = n
		sum += n
	}
	if sum == 0 {
		return w, fmt.Errorf("-mix has zero total weight")
	}
	return w, nil
}

// pick selects an op by weight from a uniform draw.
func (w opWeights) pick(r uint64) kvwire.Op {
	sum := 0
	for _, n := range w {
		sum += n
	}
	x := int(r % uint64(sum))
	for op, n := range w {
		if x < n {
			return kvwire.Op(op)
		}
		x -= n
	}
	return kvwire.OpGet
}

// generator owns the run state shared by the connection workers.
type generator struct {
	addr       string
	conns      int
	rate       float64
	total      int
	tenants    int
	keys       uint64
	weights    opWeights
	prefill    int
	seed       uint64
	timeout    time.Duration
	maxRetries int

	rec  *latency.Recorder
	next atomic.Uint64
	late atomic.Uint64
	errs atomic.Uint64

	// Degradation accounting (kvwire.RobustCounters, client-side fields).
	busy      atomic.Uint64 // BUSY responses observed
	timeouts  atomic.Uint64 // TIMEOUT responses + connection deadline expiries
	retries   atomic.Uint64 // retry attempts issued
	ambiguous atomic.Uint64 // mutations abandoned on a dead connection

	// Conservation expectations, tracked from successful responses.
	// Counts and wrapping sums commute, so concurrent workers cannot
	// skew them regardless of response interleaving.
	putN, delN, pushN, popN atomic.Uint64
	putSum, delSum          atomic.Uint64
	// auditBase is the server's AUDIT totals before the prefill: what
	// the server held before this run touched it.
	auditBase [3]uint64

	start   time.Time
	elapsed time.Duration
}

// conn is one worker's connection.
type conn struct {
	c  net.Conn
	in *bufio.Scanner
}

// fetchMetrics sends the METRICS verb on a fresh connection and reads
// the multi-line Prometheus response up to its "# EOF" terminator. A
// registry-disabled server answers a single "ERR ..." line, surfaced as
// an error.
func fetchMetrics(addr string) (string, error) {
	c, err := dialConn(addr)
	if err != nil {
		return "", err
	}
	defer c.c.Close()
	if _, err := c.c.Write([]byte("METRICS\n")); err != nil {
		return "", err
	}
	var b strings.Builder
	for c.in.Scan() {
		line := c.in.Text()
		if b.Len() == 0 && strings.HasPrefix(line, "ERR ") {
			return "", fmt.Errorf("server: %s", strings.TrimPrefix(line, "ERR "))
		}
		b.WriteString(line)
		b.WriteByte('\n')
		if line == "# EOF" {
			return b.String(), nil
		}
	}
	if err := c.in.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("connection closed before %q terminator", "# EOF")
}

// fetchStats sends the STATS verb and parses the server's one-line
// JSON report document.
func fetchStats(addr string) (kvwire.Doc, error) {
	c, err := dialConn(addr)
	if err != nil {
		return kvwire.Doc{}, err
	}
	defer c.c.Close()
	r, err := c.roundTrip(kvwire.Request{Op: kvwire.OpStats})
	if err != nil {
		return kvwire.Doc{}, err
	}
	if !r.OK() {
		return kvwire.Doc{}, fmt.Errorf("server: %s %s", r.Status, r.Raw)
	}
	var doc kvwire.Doc
	if err := json.Unmarshal([]byte(r.Raw), &doc); err != nil {
		return kvwire.Doc{}, err
	}
	return doc, nil
}

// fetchSlow sends the SLOW verb and parses the tail-exemplar document.
// A spans-disabled server answers "ERR ...", surfaced as an error.
func fetchSlow(addr string) (kvwire.SlowDoc, error) {
	c, err := dialConn(addr)
	if err != nil {
		return kvwire.SlowDoc{}, err
	}
	defer c.c.Close()
	r, err := c.roundTrip(kvwire.Request{Op: kvwire.OpSlow})
	if err != nil {
		return kvwire.SlowDoc{}, err
	}
	if !r.OK() {
		return kvwire.SlowDoc{}, fmt.Errorf("server: %s %s", r.Status, r.Raw)
	}
	var slow kvwire.SlowDoc
	if err := json.Unmarshal([]byte(r.Raw), &slow); err != nil {
		return kvwire.SlowDoc{}, err
	}
	return slow, nil
}

// reportServerSide prints the server's per-stage latency breakdown and
// its slowest requests' spans next to kvload's own client-side
// percentiles, and echoes the stage rows into the report document. The
// "dominant=" token names the stage holding the largest share of each
// exemplar's wall time — the one-line answer to "why was this request
// slow" (chaos assertions grep it).
func reportServerSide(addr string, doc *kvwire.Doc, n int) error {
	srv, err := fetchStats(addr)
	if err != nil {
		return err
	}
	doc.Stages = srv.Stages
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	if len(srv.Stages) > 0 {
		fmt.Println("server stages (service-side, merged across workers):")
		fmt.Printf("%9s %9s  %10s %10s %10s %10s\n",
			"stage", "count", "mean_us", "p50_us", "p99_us", "max_us")
		for _, st := range srv.Stages {
			fmt.Printf("%9s %9d  %10.1f %10.1f %10.1f %10.1f\n",
				st.Stage, st.Count, st.MeanNS/1e3, us(st.P50NS), us(st.P99NS), us(st.MaxNS))
		}
	}
	slow, err := fetchSlow(addr)
	if err != nil {
		return err
	}
	fmt.Printf("server tail exemplars: %d retained, threshold %.1fus\n",
		len(slow.Exemplars), us(slow.ThresholdNS))
	for i, sp := range slow.Exemplars {
		if i >= n {
			break
		}
		fmt.Printf("  req=%d op=%s status=%s tenant=%d wall=%.1fus dominant=%s",
			sp.Req, sp.Op, sp.Status, sp.Tenant, us(sp.WallNS), sp.Dominant())
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			fmt.Printf(" %s=%.1fus", st, us(sp.Stage[st]))
		}
		fmt.Printf(" kcas=%d/%d/%d (publish/help/abort)\n", sp.Publishes, sp.Helps, sp.Aborts)
	}
	return nil
}

func dialConn(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, in: bufio.NewScanner(c)}, nil
}

// roundTrip sends one request and parses its response.
func (c *conn) roundTrip(req kvwire.Request) (kvwire.Response, error) {
	if _, err := c.c.Write(req.Append(nil)); err != nil {
		return kvwire.Response{}, err
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return kvwire.Response{}, err
		}
		return kvwire.Response{}, fmt.Errorf("connection closed by server")
	}
	return kvwire.ParseResponse(c.in.Text(), req.Op != kvwire.OpStats && req.Op != kvwire.OpSlow)
}

func (g *generator) run() error {
	cs := make([]*conn, g.conns)
	for i := range cs {
		c, err := dialConn(g.addr)
		if err != nil {
			return err
		}
		cs[i] = c // the worker owns it from here (it may redial mid-run)
	}
	if err := g.doPrefill(cs[0]); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}

	interval := float64(time.Second) / g.rate
	g.start = time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, g.conns)
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			if err := g.worker(w, c, interval); err != nil {
				errCh <- fmt.Errorf("conn %d: %w", w, err)
			}
		}(w, cs[w])
	}
	wg.Wait()
	g.elapsed = time.Since(g.start)
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// doPrefill seeds every tenant before the measured interval, tracked
// in the same conservation counters as the run itself.
func (g *generator) doPrefill(c *conn) error {
	rng := xrand.New(g.seed ^ 0xfeedface)
	for tn := 0; tn < g.tenants; tn++ {
		for i := 0; i < g.prefill; i++ {
			v := g.token(uint64(g.conns), rng)
			r, err := c.roundTrip(kvwire.Request{
				Op: kvwire.OpPut, Tenant: tn,
				Keys: []uint64{rng.Uint64() % g.keys}, Val: v,
			})
			if err != nil {
				return err
			}
			if r.OK() {
				g.putN.Add(1)
				g.putSum.Add(v)
			}
		}
		for i := 0; i < g.prefill/4; i++ {
			r, err := c.roundTrip(kvwire.Request{
				Op: kvwire.OpPush, Tenant: tn, Val: g.token(uint64(g.conns), rng),
			})
			if err != nil {
				return err
			}
			if r.OK() {
				g.pushN.Add(1)
			}
		}
	}
	return nil
}

// tokenSeq hands out globally unique value tokens: the owner id in the
// high bits, a per-owner sequence below.
var tokenSeq [1 << 8]atomic.Uint64

func (g *generator) token(owner uint64, _ *xrand.State) uint64 {
	return (owner+1)<<40 | tokenSeq[owner&0xff].Add(1)
}

// worker pulls request indices off the shared schedule and issues them
// at their intended times.
func (g *generator) worker(w int, c *conn, interval float64) error {
	defer func() { c.c.Close() }()
	rng := xrand.New(g.seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
	jit := backoff.NewJitter(time.Millisecond, 100*time.Millisecond,
		g.seed^(uint64(w)+1)*0xbf58476d1ce4e5b9)
	for {
		i := g.next.Add(1) - 1
		if i >= uint64(g.total) {
			return nil
		}
		intended := g.start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		} else {
			g.late.Add(1)
		}
		req := g.request(w, rng)
		resp, ok, err := g.send(&c, req, jit)
		// Latency from the INTENDED slot: backlog waits AND retry
		// backoff count against the request, not the schedule.
		g.rec.Record(w, req.Tenant, int(req.Op), time.Since(intended))
		if err != nil {
			return err
		}
		if ok {
			g.account(w, req, resp)
		}
	}
}

// neutral reports whether op cannot change the conservation totals:
// GET reads, and the composed MOVE/XFER/DRAIN relocate entries without
// creating or destroying them. Neutral ops are safe to retry even when
// it is unknowable whether a lost attempt executed.
func neutral(op kvwire.Op) bool {
	switch op {
	case kvwire.OpGet, kvwire.OpMove, kvwire.OpXfer, kvwire.OpDrain:
		return true
	}
	return false
}

// send issues one request with bounded jittered retry. Two failure
// classes are distinguished:
//
//   - A wire-level BUSY or TIMEOUT response is the server guaranteeing
//     the op was NOT executed (shed before execution, or exhaustion
//     unwound from an init phase), so ANY op retries safely.
//   - A connection-level failure (deadline expiry, server closed the
//     conn — e.g. its worker was fault-killed mid-op) is ambiguous:
//     the op may have executed before the response was lost. Only
//     conservation-neutral ops retry, on a fresh connection; mutations
//     are abandoned and counted ambiguous.
//
// Returns ok=false when the request was abandoned without a usable
// response (never accounted); a non-nil error aborts the worker.
func (g *generator) send(cp **conn, req kvwire.Request, jit *backoff.Jitter) (kvwire.Response, bool, error) {
	attempts := 0
	for {
		c := *cp
		if g.timeout > 0 {
			c.c.SetDeadline(time.Now().Add(g.timeout))
		}
		resp, err := c.roundTrip(req)
		if err == nil {
			switch resp.Status {
			case "BUSY":
				g.busy.Add(1)
			case "TIMEOUT":
				g.timeouts.Add(1)
			default:
				jit.Reset()
				return resp, true, nil
			}
			if attempts >= g.maxRetries {
				return resp, true, nil // rejected but answered: not executed
			}
		} else {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				g.timeouts.Add(1)
			}
			c.c.Close()
			nc, derr := dialConn(g.addr)
			if derr != nil {
				return kvwire.Response{}, false, fmt.Errorf("redial after %v: %w", err, derr)
			}
			*cp = nc
			if !neutral(req.Op) {
				g.ambiguous.Add(1)
				return kvwire.Response{}, false, nil
			}
			if attempts >= g.maxRetries {
				return kvwire.Response{}, false, nil
			}
		}
		attempts++
		g.retries.Add(1)
		jit.Sleep()
	}
}

// request builds one weighted-random request.
func (g *generator) request(w int, rng *xrand.State) kvwire.Request {
	op := g.weights.pick(rng.Uint64())
	tn := int(rng.Uint64() % uint64(g.tenants))
	dt := 0
	if g.tenants > 1 {
		dt = (tn + 1 + int(rng.Uint64()%uint64(g.tenants-1))) % g.tenants
	}
	k := func() uint64 { return rng.Uint64() % g.keys }
	req := kvwire.Request{Op: op, Tenant: tn, DTenant: dt}
	switch op {
	case kvwire.OpGet, kvwire.OpDel:
		req.Keys = []uint64{k()}
	case kvwire.OpPut:
		req.Keys, req.Val = []uint64{k()}, g.token(uint64(w), rng)
	case kvwire.OpPush:
		req.Val = g.token(uint64(w), rng)
	case kvwire.OpPop:
	case kvwire.OpMove:
		req.Keys, req.TKeys = []uint64{k()}, []uint64{k()}
	case kvwire.OpXfer:
		sk1 := k()
		sk2 := (sk1 + 1 + rng.Uint64()%(g.keys-1)) % g.keys
		tk1 := k()
		tk2 := (tk1 + 1 + rng.Uint64()%(g.keys-1)) % g.keys
		req.Keys, req.TKeys = []uint64{sk1, sk2}, []uint64{tk1, tk2}
	case kvwire.OpDrain:
		req.N = 1 + int(rng.Uint64()%4)
	}
	if g.tenants == 1 && (op == kvwire.OpMove || op == kvwire.OpXfer || op == kvwire.OpDrain) {
		// Composed ops need two tenants; degrade to a read.
		return kvwire.Request{Op: kvwire.OpGet, Tenant: tn, Keys: []uint64{k()}}
	}
	return req
}

// account folds one successful response into the conservation
// expectations. Composed operations are deliberately absent: MOVE,
// XFER and DRAIN relocate entries and must not change any total.
func (g *generator) account(w int, req kvwire.Request, resp kvwire.Response) {
	if resp.Status == "ERR" {
		g.errs.Add(1)
		return
	}
	if !resp.OK() {
		return
	}
	switch req.Op {
	case kvwire.OpPut:
		g.putN.Add(1)
		g.putSum.Add(req.Val)
	case kvwire.OpDel:
		g.delN.Add(1)
		g.delSum.Add(resp.Vals[0])
	case kvwire.OpPush:
		g.pushN.Add(1)
	case kvwire.OpPop:
		g.popN.Add(1)
	}
}

// auditTotals fetches the server's AUDIT totals: map entries, wrapping
// map value-sum, queue entries.
func (g *generator) auditTotals() (tot [3]uint64, err error) {
	c, err := dialConn(g.addr)
	if err != nil {
		return tot, err
	}
	defer c.c.Close()
	r, err := c.roundTrip(kvwire.Request{Op: kvwire.OpAudit})
	if err != nil {
		return tot, err
	}
	if !r.OK() || len(r.Vals) != len(tot) {
		return tot, fmt.Errorf("bad AUDIT response %+v", r)
	}
	copy(tot[:], r.Vals)
	return tot, nil
}

// audit compares the response-tracked expectations with what the run
// changed on the server: its AUDIT totals now minus auditBase. Both
// sides are wrapping uint64 differences, so the comparison is exact
// even when the run removed more than it inserted.
func (g *generator) audit() (kvwire.Audit, error) {
	got, err := g.auditTotals()
	if err != nil {
		return kvwire.Audit{}, err
	}
	a := kvwire.Audit{
		ExpectMapCount:   g.putN.Load() - g.delN.Load(),
		ExpectMapSum:     g.putSum.Load() - g.delSum.Load(),
		ExpectQueueCount: g.pushN.Load() - g.popN.Load(),
		GotMapCount:      got[0] - g.auditBase[0],
		GotMapSum:        got[1] - g.auditBase[1],
		GotQueueCount:    got[2] - g.auditBase[2],
	}
	a.Pass = a.GotMapCount == a.ExpectMapCount &&
		a.GotMapSum == a.ExpectMapSum &&
		a.GotQueueCount == a.ExpectQueueCount
	return a, nil
}

// report prints the percentile tables and builds the JSON document.
func (g *generator) report(out *os.File) kvwire.Doc {
	doc := kvwire.NewDoc()
	doc.RateRPS = g.rate
	doc.DurationMS = float64(g.elapsed.Nanoseconds()) / 1e6
	doc.Conns = g.conns
	wall := float64(g.elapsed.Nanoseconds())

	all := g.rec.MergedAll()
	fmt.Fprintf(out, "kvload: %d requests over %.2fs (intended %.0f req/s, achieved %.0f req/s), %d late dispatches\n",
		all.Count, g.elapsed.Seconds(), g.rate, float64(all.Count)*1e9/wall, g.late.Load())
	doc.Robust = &kvwire.RobustCounters{
		Busy:      g.busy.Load(),
		Timeouts:  g.timeouts.Load(),
		Retries:   g.retries.Load(),
		Ambiguous: g.ambiguous.Load(),
	}
	if r := doc.Robust; r.Busy+r.Timeouts+r.Retries+r.Ambiguous > 0 {
		fmt.Fprintf(out, "kvload: degradation: %d busy, %d timeouts, %d retries, %d ambiguous\n",
			r.Busy, r.Timeouts, r.Retries, r.Ambiguous)
	}
	if !doc.Contended {
		fmt.Fprintln(os.Stderr, "kvload: warning: GOMAXPROCS=1 — generator and measurements ran time-sliced on one CPU")
	}
	fmt.Fprintf(out, "%7s %9s %9s  %10s %10s %10s %10s %10s\n",
		"tenant", "op", "count", "mean_us", "p50_us", "p99_us", "p999_us", "max_us")
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for tn := 0; tn < g.tenants; tn++ {
		ops := make([]int, 0, int(kvwire.OpCount))
		for op := 0; op < int(kvwire.OpCount); op++ {
			ops = append(ops, op)
		}
		sort.Ints(ops)
		for _, op := range ops {
			s := g.rec.Merged(tn, op)
			if s.Count == 0 {
				continue
			}
			fmt.Fprintf(out, "%7d %9s %9d  %10.1f %10.1f %10.1f %10.1f %10.1f\n",
				tn, kvwire.Op(op), s.Count, s.MeanNS()/1e3,
				us(s.Percentile(0.5)), us(s.Percentile(0.99)), us(s.Percentile(0.999)), us(s.MaxNS))
			doc.Rows = append(doc.Rows,
				kvwire.RowFrom("kvload", strconv.Itoa(tn), kvwire.Op(op).String(), g.conns, s, wall))
		}
		ts := g.rec.MergedTenant(tn)
		if ts.Count == 0 {
			continue
		}
		fmt.Fprintf(out, "%7d %9s %9d  %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			tn, "all", ts.Count, ts.MeanNS()/1e3,
			us(ts.Percentile(0.5)), us(ts.Percentile(0.99)), us(ts.Percentile(0.999)), us(ts.MaxNS))
		doc.Rows = append(doc.Rows, kvwire.RowFrom("kvload", strconv.Itoa(tn), "all", g.conns, ts, wall))
	}
	overall := kvwire.RowFrom("kvload", "all", "all", g.conns, all, wall)
	overall.Late = g.late.Load()
	doc.Rows = append(doc.Rows, overall)
	fmt.Fprintf(out, "%7s %9s %9d  %10.1f %10.1f %10.1f %10.1f %10.1f\n",
		"all", "all", all.Count, all.MeanNS()/1e3,
		us(all.Percentile(0.5)), us(all.Percentile(0.99)), us(all.Percentile(0.999)), us(all.MaxNS))
	return doc
}

func printAudit(a kvwire.Audit) {
	verdict := "PASS"
	if !a.Pass {
		verdict = "FAIL"
	}
	// Counts are changes over the run and print signed: against a warm
	// server a run may remove more than it inserts.
	fmt.Printf("conservation audit: %s (maps %d/%d entries, sum %d/%d; queues %d/%d) [expect/got]\n",
		verdict, int64(a.ExpectMapCount), int64(a.GotMapCount), a.ExpectMapSum, a.GotMapSum,
		int64(a.ExpectQueueCount), int64(a.GotQueueCount))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvload:", err)
	os.Exit(1)
}
