package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/kvwire"
	"repro/internal/xrand"
)

// svcBase is what the two service workloads share: the server child,
// the load and control connections, the booking, the ledger and the
// server snapshots taken around a traced pass. One load thread drives
// both connections, polling, and walks the rounds of the pass.
type svcBase struct {
	ctx    context.Context
	plan   plan
	seed   uint64
	bin    string
	srv    *server
	conns  []*client
	ctl    *client
	ws     []*workerStats // one: the load thread's
	ts     *traceSet      // one span store per connection
	viol   violations
	ledger ledger

	auditBefore    audit
	stats0, stats1 kvwire.Doc
	reads          uint64 // socket reads that returned data, over the load
	responses      uint64 // responses received, over the load

	// The open round.
	cur     *slice
	cpuMark time.Duration // the server's CPU clock when the round's work began
	failed  uint64        // operations of the open round that failed
}

// svcRoundLen is the work of one round: long enough for a couple of
// hundred point requests, so that a round has a 90th percentile.
const svcRoundLen = 20 * time.Millisecond

// svcCPUBlock is how many rounds the server's CPU time is taken over.
// The kernel books a thread's time when the thread leaves its processor,
// so a reading between two rounds may miss the last stretch of one and
// find it in the next; over eight rounds that is a percent.
const svcCPUBlock = 8

func (b *svcBase) init(ctx context.Context, p plan, seed uint64, bin string) {
	p.roundLen = svcRoundLen
	b.ctx, b.plan, b.seed, b.bin, b.ws = ctx, p, seed, bin, newWorkerStats(1)
	if p.trace {
		b.ts = newTraceSet(loadThreads)
	}
}

func (b *svcBase) stats() []*workerStats       { return b.ws }
func (b *svcBase) spans() *traceSet            { return b.ts }
func (b *svcBase) pid() int                    { return b.srv.pid() }
func (b *svcBase) valid(*clock) bool           { return true }
func (b *svcBase) rounds(*clock) []round       { return timedRounds(b.ws, svcCPUBlock) }
func (b *svcBase) backgroundNS(*clock) float64 { return 0 }

// launch starts a fresh server (request spans on only in a traced
// pass) and connects.
func (b *svcBase) launch() error {
	var err error
	if b.srv, err = startServer(b.ctx, b.bin, b.plan.trace); err != nil {
		return err
	}
	b.conns = b.conns[:0]
	for i := 0; i < loadThreads; i++ {
		cl, err := dial(b.srv.addr)
		if err != nil {
			return err
		}
		b.conns = append(b.conns, cl)
	}
	b.ctl, err = dial(b.srv.addr)
	return err
}

func (b *svcBase) teardown() {
	for _, cl := range b.conns {
		cl.close()
	}
	b.ctl.close()
	b.conns, b.ctl = nil, nil
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

// diagnose is what the watchdog prints about a stuck server: its last
// STATS, fetched over a fresh connection, and its stderr.
func (b *svcBase) diagnose() string {
	if b.srv == nil {
		return ""
	}
	out := "kvserver stderr: " + b.srv.stderr.String()
	if cl, err := dial(b.srv.addr); err == nil {
		defer cl.close()
		if raw, err := cl.control(kvwire.OpStats); err == nil {
			out += "\nkvserver last STATS: " + raw
		}
	}
	return out
}

// prefill sends reqs over the first load connection, pipelined, and
// requires every response to be OK. It ends set-up with the AUDIT the
// final one is compared against.
func (b *svcBase) prefill(reqs []kvwire.Request) error {
	cl := b.conns[0]
	const chunk = 256
	for len(reqs) > 0 {
		n := min(chunk, len(reqs))
		cl.buf = cl.buf[:0]
		for _, r := range reqs[:n] {
			cl.buf = r.Append(cl.buf)
		}
		if err := cl.send(cl.buf); err != nil {
			return err
		}
		for _, r := range reqs[:n] {
			resp, err := cl.recv()
			if err != nil {
				return err
			}
			if !resp.OK() {
				return fmt.Errorf("prefill %v answered %s %s", r.Op, resp.Status, resp.Raw)
			}
		}
		reqs = reqs[n:]
	}
	cl.reads = 0 // client.resp_per_read counts the load, not the prefill
	var err error
	b.auditBefore, err = b.ctl.audit()
	return err
}

// drive runs loop as the load thread, on its own processor, and joins
// it.
func (b *svcBase) drive(c *clock, loop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer pin(clientSlot)()
		loop()
		b.endRounds(c)
	}()
	<-done
	for _, cl := range b.conns {
		b.reads += cl.reads
	}
}

// snap reads the server's STATS; a traced pass does around its timed
// phase.
func (b *svcBase) snap(into *kvwire.Doc) {
	doc, err := b.ctl.stats()
	if err != nil {
		b.viol.addf("STATS: %v", err)
	}
	*into = doc
}

// beginRound opens the next round and reports whether there is one.
// Nothing is in flight between rounds, so the server is idle and its CPU
// clock, read here, stands still.
func (b *svcBase) beginRound(c *clock) bool {
	was := c.phase.Load()
	ph := c.tick()
	if ph == phaseStop {
		return false
	}
	tSync := now()
	cpu := b.srv.cpu()
	b.closeRound(cpu)
	if ph == phaseTimed && was == phaseWarm && b.plan.trace {
		b.snap(&b.stats0)
		cpu = b.srv.cpu()
	}
	for i := range b.conns {
		if tt := b.ts.thread(i); tt != nil {
			tt.nextRound(ph == phaseTimed)
			tt.rec(opSync, true, tSync, now())
		}
	}
	b.cpuMark = cpu
	b.cur = b.ws[0].open(ph == phaseTimed)
	return true
}

// closeRound gives the last round the server's CPU time over it, from
// the server's CPU clock as read after the round.
func (b *svcBase) closeRound(cpu time.Duration) {
	if b.cur != nil {
		b.cur.cpu = cpu - b.cpuMark
	}
}

// finishRound books the open round: ops operations completed, the last
// at time end.
func (b *svcBase) finishRound(ops uint64, end int64) {
	b.ws[0].book(b.cur, ops, b.failed, end-b.cur.t0, 0)
	b.failed = 0
}

// endRounds closes the walk.
func (b *svcBase) endRounds(c *clock) {
	b.closeRound(b.srv.cpu())
	c.end()
	if b.plan.trace {
		b.snap(&b.stats1)
	}
}

// fail books a failed operation of the open round and keeps the reason
// as a finding.
func (b *svcBase) fail(format string, args ...any) {
	b.failed++
	b.viol.addf(format, args...)
}

// checkAudit is the delta-based conservation oracle.
func (b *svcBase) checkAudit() {
	after, err := b.ctl.audit()
	if err != nil {
		b.viol.addf("final AUDIT: %v", err)
		return
	}
	if err := b.ledger.check(b.auditBefore, after); err != nil {
		b.viol.addf("%v", err)
	}
}

// stageDelta returns the mean of stage name over the samples recorded
// between the two STATS snapshots, and the cumulative p99 at the second
// (percentiles cannot be differenced; the server is fresh, so the p99
// covers prefill, warm-up and the traced rounds).
func stageDelta(before, after kvwire.Doc, name string) (mean float64, p99 float64) {
	var b, a kvwire.StageRow
	for _, r := range before.Stages {
		if r.Stage == name {
			b = r
		}
	}
	for _, r := range after.Stages {
		if r.Stage == name {
			a = r
		}
	}
	if a.Count <= b.Count {
		return 0, float64(a.P99NS)
	}
	sum := a.MeanNS*float64(a.Count) - b.MeanNS*float64(b.Count)
	return sum / float64(a.Count-b.Count), float64(a.P99NS)
}

// layerMetrics fills the client, net and kvserver layers from the
// traced pass. windowOps is how many requests one client.wait span
// covers (1 on svc_point, the window on svc_pipe).
func (b *svcBase) layerMetrics(m metrics, c *clock, windowOps float64) {
	attempted, _ := totals(b.ws)
	ops := float64(attempted)

	lat := timedLatencies(b.ws)
	m.set("client.lat_p99_us", quantile(lat, 0.99)/1e3)
	m.set("client.lat_p999_us", quantile(lat, 0.999)/1e3)
	over := len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > 1e6 })
	m.set("client.over_1ms_ratio", ratio(float64(over), float64(len(lat))))
	if s, _ := b.ts.merged(opGenLag); s.Count > 0 {
		m.set("client.gen_lag_p50_us", float64(s.Percentile(0.50))/1e3)
		m.set("client.gen_lag_p99_us", float64(s.Percentile(0.99))/1e3)
	}
	send, _ := b.ts.merged(opSend)
	m.set("client.send_us_mean", send.MeanNS()/1e3)
	wait, _ := b.ts.merged(opWait)
	waitP50 := float64(wait.Percentile(0.50)) / 1e3
	m.set("client.wait_p50_us", waitP50)
	// Reads and responses are both counted from the first warm-up
	// request to the last response of the run.
	m.set("client.resp_per_read", ratio(float64(b.responses), float64(b.reads)))
	m.set("client.cpu_us_per_op", ratio(float64(c.cpuEnd-c.cpuTimed)/1e3, ops))

	var stageSum float64
	for _, st := range []string{"queue", "parse", "execute", "degrade", "write"} {
		mean, p99 := stageDelta(b.stats0, b.stats1, st)
		m.set("kvserver."+st+"_ns_mean", mean)
		stageSum += mean
		if st == "execute" || st == "write" {
			m.set("kvserver."+st+"_ns_p99", p99)
		}
	}
	m.set("kvserver.write_share", ratio(m["kvserver.write_ns_mean"].Value, stageSum))
	// By construction: what the client waited for, minus what the server
	// accounts for, is loopback and wake-ups — not the program's.
	m.set("net.residual_p50_us", waitP50-windowOps*stageSum/1e3)

	counter := func(name string) float64 {
		return float64(b.stats1.Obs[name]) - float64(b.stats0.Obs[name])
	}
	for _, name := range []string{"busy", "timeouts", "shed", "lost_workers", "spans_dropped"} {
		m.set("kvserver."+name+"_total", counter(name+"_total"))
	}
	m.set("kvserver.kcas_publish_per_op", ratio(counter("kcas_publish_total"), ops))
	m.set("kvserver.kcas_helps_per_kop", ratio(1e3*counter("kcas_helps_total"), ops))
	m.set("kvserver.kcas_aborts_per_kop", ratio(1e3*counter("kcas_aborts_total"), ops))
	m.set("kvserver.map_grows_total", float64(b.stats1.Obs["map_grows_total"]))
	m.set("bench.span_coverage_ratio", b.ts.coverage(c))
}

// ---------------------------------------------------------------------
// svc_point

const (
	pointKeys    = 4096  // keys per tenant, half of them prefilled
	pointRate    = 12000 // requests per second over both connections
	pointLagTest = 0.10  // gen lag p50 above this share of lat p50 voids the run
)

// svcPoint is independent point callers: an open loop at a fixed rate
// about a quarter of the two-connection closed-loop capacity, one
// request in flight per connection, latency counted from the time each
// request was due.
type svcPoint struct {
	svcBase
	genLag []int64 // ns, per request of the timed rounds
}

func newSvcPoint(ctx context.Context, p plan, seed uint64, bin string) *svcPoint {
	w := &svcPoint{}
	w.init(ctx, p, seed, bin)
	return w
}

func (w *svcPoint) setUp() error {
	if err := w.launch(); err != nil {
		return err
	}
	rng := xrand.New(w.seed ^ 0x706f696e74)
	var reqs []kvwire.Request
	for tn := 0; tn < svcTenants; tn++ {
		// A seeded half of the keys: PUT then finds half of its keys
		// absent and DEL half of its keys present, and stays there.
		for k := uint64(0); k < pointKeys; k++ {
			if rng.Uint64()&1 == 0 {
				reqs = append(reqs, kvwire.Request{Op: kvwire.OpPut, Tenant: tn, Keys: []uint64{k}, Val: tokenOf(k)})
			}
		}
	}
	return w.prefill(reqs)
}

func (w *svcPoint) run(c *clock) { w.drive(c, func() { w.loop(c) }) }

// pointConn is one connection's place in the round's arrival schedule.
type pointConn struct {
	due      int64 // when the next (or the in-flight) request was due
	t0, t1   int64 // the in-flight request's send start and end
	left     int   // requests of the round not yet sent
	inflight bool
	req      kvwire.Request
}

// loop is the load thread: round after round, it sends each
// connection's next request when it is due and polls both connections
// for responses, yielding the processor between polls and never
// sleeping. A round is a stretch of the arrival schedule of the round's
// length; the next round's schedule starts afresh, so a backlog never
// crosses a round.
func (w *svcPoint) loop(c *clock) {
	rng := xrand.New(w.seed*1000003 + 1)
	interval := int64(time.Second) * loadThreads / pointRate
	perRound := int(int64(w.plan.roundLen) / interval)
	var cs [loadThreads]pointConn
	for i := range cs {
		cs[i].req.Keys = make([]uint64, 1)
	}
	for w.beginRound(c) {
		timed := w.cur.timed
		start := w.cur.t0
		for i := range cs {
			// The connections' schedules interleave.
			cs[i].due, cs[i].left = start+int64(i)*interval/loadThreads, perRound
		}
		var ops uint64
		last := start
		for busy := true; busy && !c.stopped(); {
			busy = false
			t := now()
			for i := range cs {
				s, cl := &cs[i], w.conns[i]
				if !s.inflight && s.left > 0 && t >= s.due {
					w.next(rng, &s.req)
					cl.buf = s.req.Append(cl.buf[:0])
					s.t0 = now()
					if err := cl.send(cl.buf); err != nil {
						w.fail("connection %d: %v", i, err)
						w.finishRound(ops, now())
						return
					}
					s.t1, s.inflight, s.left = now(), true, s.left-1
				}
				if s.inflight || s.left > 0 {
					busy = true
				}
				if !s.inflight {
					continue
				}
				if _, err := cl.poll(); err != nil {
					w.fail("connection %d: %v", i, err)
					w.finishRound(ops, now())
					return
				}
				line := cl.line()
				if line == nil {
					continue
				}
				t2 := now()
				w.responses++
				resp, err := kvwire.ParseResponse(string(line), true)
				if err != nil || !pointResponseOK(s.req, resp) {
					w.fail("%v key %d answered %q", s.req.Op, s.req.Keys[0], line)
				} else {
					w.ledger.apply(s.req.Op, s.req.Val, resp)
					w.ws[0].sample(t2 - s.due)
					if timed {
						w.genLag = append(w.genLag, s.t0-s.due)
					}
					if tt := w.ts.thread(i); tt != nil {
						tt.rec(opGenLag, true, s.due, s.t0)
						tt.rec(opSend, true, s.t0, s.t1)
						tt.rec(opWait, true, s.t1, t2)
					}
					ops++
					last = t2
				}
				s.inflight = false
				s.due += interval
			}
			yield()
		}
		w.finishRound(ops, last)
	}
	// A request still in flight (the clock was stopped from outside) may
	// have executed: its response belongs in the ledger.
	for i := range cs {
		if s := &cs[i]; s.inflight {
			if resp, err := w.conns[i].recv(); err == nil {
				w.ledger.apply(s.req.Op, s.req.Val, resp)
			}
		}
	}
}

// next draws the next request: 90% GET, 5% PUT, 5% DEL on a uniform
// key of a uniform tenant.
func (w *svcPoint) next(rng *xrand.State, req *kvwire.Request) {
	switch r := rng.Intn(100); {
	case r < 90:
		req.Op = kvwire.OpGet
	case r < 95:
		req.Op = kvwire.OpPut
	default:
		req.Op = kvwire.OpDel
	}
	req.Tenant = rng.Intn(svcTenants)
	req.Keys[0] = uint64(rng.Intn(pointKeys))
	req.Val = tokenOf(req.Keys[0])
}

// pointResponseOK says whether resp is one of the outcomes the request
// may legitimately have: a miss, an occupied key and an absent key are
// answers, not failures; ERR, BUSY, TIMEOUT and a wrong value are.
func pointResponseOK(req kvwire.Request, resp kvwire.Response) bool {
	switch req.Op {
	case kvwire.OpGet, kvwire.OpDel:
		if resp.OK() {
			return len(resp.Vals) == 1 && resp.Vals[0] == tokenOf(req.Keys[0])
		}
		return resp.Status == "NF"
	case kvwire.OpPut:
		return resp.OK() || resp.Status == "EXISTS"
	}
	return false
}

func (w *svcPoint) verify() []string {
	w.checkAudit()
	return w.viol.list
}

// valid is the generator's honesty check: the run is void when the
// generator itself was late by more than a tenth of the median latency,
// or when fewer than 99% of the offered requests were completed.
func (w *svcPoint) valid(c *clock) bool {
	lat := timedLatencies(w.ws)
	slices.Sort(w.genLag)
	rate := medianRate(w.rounds(c))
	return quantile(w.genLag, 0.50) <= pointLagTest*quantile(lat, 0.50) && rate >= 0.99*pointRate
}

func (w *svcPoint) layerMetrics(m metrics, c *clock) { w.svcBase.layerMetrics(m, c, 1) }

// ---------------------------------------------------------------------
// svc_pipe

const (
	pipeWindow = 16   // requests a connection keeps in flight
	pipeKeys   = 6144 // keys over all tenants, each in exactly one
	pipeQueued = 256  // elements prefilled into each tenant's queue
	pipeDrainN = 4    // DRAIN budget
)

// svcPipe removes the client round trip: each connection writes a
// window of requests in one write and reads the window's responses
// before the next, so server CPU per request is the bound. The mix is
// conservation-neutral (GET, MOVE, XFER, DRAIN). A connection moves only
// keys of its own parity and never uses a key twice in one window, so
// it knows which tenant holds each of its keys and every MOVE must
// succeed; DRAINs rotate through the tenant pairs so that no queue runs
// empty.
type svcPipe struct {
	svcBase
	loc [loadThreads][]uint8 // loc[id][k]: tenant holding connection id's key k
}

func newSvcPipe(ctx context.Context, p plan, seed uint64, bin string) *svcPipe {
	w := &svcPipe{}
	w.init(ctx, p, seed, bin)
	return w
}

func (w *svcPipe) setUp() error {
	if err := w.launch(); err != nil {
		return err
	}
	rng := xrand.New(w.seed ^ 0x70697065)
	var reqs []kvwire.Request
	for id := range w.loc {
		w.loc[id] = make([]uint8, pipeKeys)
	}
	for k := uint64(0); k < pipeKeys; k++ {
		tn := rng.Intn(svcTenants)
		w.loc[k%loadThreads][k] = uint8(tn)
		reqs = append(reqs, kvwire.Request{Op: kvwire.OpPut, Tenant: tn, Keys: []uint64{k}, Val: tokenOf(k)})
	}
	for tn := 0; tn < svcTenants; tn++ {
		for i := uint64(0); i < pipeQueued; i++ {
			reqs = append(reqs, kvwire.Request{Op: kvwire.OpPush, Tenant: tn, Val: uint64(tn)<<32 | (i + 1)})
		}
	}
	return w.prefill(reqs)
}

func (w *svcPipe) run(c *clock) { w.drive(c, func() { w.loop(c) }) }

// pipeGen generates one connection's request stream. It is also what
// the kvwire probes parse and serialize.
type pipeGen struct {
	id    int
	rng   *xrand.State
	loc   []uint8
	stamp []uint32 // stamp[k] == win: key k is already used in this window
	win   uint32
	drain int
}

func newPipeGen(id int, seed uint64, loc []uint8) *pipeGen {
	return &pipeGen{
		id: id, rng: xrand.New(seed*1000003 + uint64(id) + 1),
		loc: loc, stamp: make([]uint32, pipeKeys),
	}
}

// freshKey draws an own key not yet used in this window and, when
// tenant >= 0, held by that tenant.
func (g *pipeGen) freshKey(tenant int) uint64 {
	k := uint64(g.rng.Intn(pipeKeys/loadThreads))*loadThreads + uint64(g.id)
	for g.stamp[k] == g.win || (tenant >= 0 && int(g.loc[k]) != tenant) {
		k = (k + loadThreads) % pipeKeys
	}
	g.stamp[k] = g.win
	return k
}

// otherTenant draws a tenant different from tn.
func (g *pipeGen) otherTenant(tn int) int {
	return (tn + 1 + g.rng.Intn(svcTenants-1)) % svcTenants
}

// next fills req with the next request of the stream. first marks the
// first request of a window.
func (g *pipeGen) next(req *kvwire.Request, first bool) {
	if first {
		g.win++
	}
	switch r := g.rng.Intn(100); {
	case r < 30:
		req.Op = kvwire.OpGet
		req.Tenant = g.rng.Intn(svcTenants)
		req.Keys = append(req.Keys[:0], uint64(g.rng.Intn(pipeKeys)))
	case r < 70:
		req.Op = kvwire.OpMove
		k := g.freshKey(-1)
		req.Tenant = int(g.loc[k])
		req.DTenant = g.otherTenant(req.Tenant)
		req.Keys = append(req.Keys[:0], k)
		req.TKeys = append(req.TKeys[:0], k)
	case r < 90:
		req.Op = kvwire.OpXfer
		k1 := g.freshKey(-1)
		req.Tenant = int(g.loc[k1])
		req.DTenant = g.otherTenant(req.Tenant)
		req.Keys = append(req.Keys[:0], k1, g.freshKey(req.Tenant))
		req.TKeys = append(req.TKeys[:0], req.Keys...)
	default:
		req.Op = kvwire.OpDrain
		req.Tenant = g.drain % svcTenants
		req.DTenant = (g.drain + 1) % svcTenants
		req.N = pipeDrainN
		g.drain++
	}
}

// settle updates the model with an acknowledged MOVE or XFER.
func (g *pipeGen) settle(req *kvwire.Request) {
	for _, k := range req.Keys {
		g.loc[k] = uint8(req.DTenant)
	}
}

// pipeConn is one connection's window in flight.
type pipeConn struct {
	gen    *pipeGen
	reqs   [pipeWindow]kvwire.Request
	got    int   // responses of the window received so far; pipeWindow: none in flight
	t0, t1 int64 // the window's send start and end
}

// pipeSampleMask selects the 1-in-8 requests whose latency is kept: some
// 300 a round, and under half of maxSamples over a 30-second run.
const pipeSampleMask = 7

// loop is the load thread: round after round, it keeps one window in
// flight on each connection and polls both for responses, yielding the
// processor when a poll brought nothing. When the round's time is up it
// sends no further window and the round ends with the last response.
func (w *svcPipe) loop(c *clock) {
	var cs [loadThreads]pipeConn
	for i := range cs {
		cs[i].gen, cs[i].got = newPipeGen(i, w.seed, w.loc[i]), pipeWindow
	}
	var n uint64
	for w.beginRound(c) {
		end := w.cur.t0 + int64(w.plan.roundLen)
		var ops uint64
		last := w.cur.t0
		for {
			idle, inflight := true, false
			refill := now() < end && !c.stopped()
			for i := range cs {
				s, cl := &cs[i], w.conns[i]
				if s.got == pipeWindow {
					if !refill {
						continue
					}
					cl.buf = cl.buf[:0]
					for j := range s.reqs {
						s.gen.next(&s.reqs[j], j == 0)
						cl.buf = s.reqs[j].Append(cl.buf)
					}
					s.t0 = now()
					if err := cl.send(cl.buf); err != nil {
						w.fail("connection %d: %v", i, err)
						w.finishRound(ops, now())
						return
					}
					s.t1, s.got = now(), 0
				}
				inflight = true
				got, err := cl.poll()
				if err != nil {
					w.fail("connection %d: %v", i, err)
					w.finishRound(ops, now())
					return
				}
				if !got {
					continue
				}
				idle = false
				for line := cl.line(); line != nil; line = cl.line() {
					req := &s.reqs[s.got]
					s.got++
					w.responses++
					resp, err := kvwire.ParseResponse(string(line), true)
					if err != nil || !pipeResponseOK(req, resp) {
						w.fail("%v keys %v answered %q", req.Op, req.Keys, line)
						continue
					}
					if resp.OK() && (req.Op == kvwire.OpMove || req.Op == kvwire.OpXfer) {
						s.gen.settle(req)
					}
					last = now()
					if n++; n&pipeSampleMask == 0 {
						w.ws[0].sample(last - s.t0)
					}
					ops++
				}
				if s.got == pipeWindow {
					if tt := w.ts.thread(i); tt != nil {
						tt.rec(opSend, true, s.t0, s.t1)
						tt.rec(opWait, true, s.t1, last)
					}
				}
			}
			if !inflight {
				break
			}
			if idle {
				yield()
			}
		}
		w.finishRound(ops, last)
	}
}

// pipeResponseOK says whether resp is a legitimate outcome. A MOVE must
// succeed (the model knows where the key is); an XFER may FAIL when its
// keys share a bucket chain; a GET may miss.
func pipeResponseOK(req *kvwire.Request, resp kvwire.Response) bool {
	tokens := func() bool {
		if len(resp.Vals) != len(req.Keys) {
			return false
		}
		for i, k := range req.Keys {
			if resp.Vals[i] != tokenOf(k) {
				return false
			}
		}
		return true
	}
	switch req.Op {
	case kvwire.OpGet:
		return resp.Status == "NF" || (resp.OK() && tokens())
	case kvwire.OpMove:
		return resp.OK() && tokens()
	case kvwire.OpXfer:
		return resp.Status == "FAIL" || (resp.OK() && tokens())
	case kvwire.OpDrain:
		return resp.OK() && len(resp.Vals) <= req.N
	}
	return false
}

// verify checks the AUDIT delta (nothing in this mix may change it) and
// sweeps every key over every tenant: each key must be held by exactly
// the tenant its owner's model names.
func (w *svcPipe) verify() []string {
	w.checkAudit()
	cl := w.conns[0]
	req := kvwire.Request{Op: kvwire.OpGet, Keys: make([]uint64, 1)}
	const chunk = 512
	for base := uint64(0); base < pipeKeys; base += chunk {
		cl.buf = cl.buf[:0]
		for k := base; k < base+chunk; k++ {
			for tn := 0; tn < svcTenants; tn++ {
				req.Tenant, req.Keys[0] = tn, k
				cl.buf = req.Append(cl.buf)
			}
		}
		if err := cl.send(cl.buf); err != nil {
			w.viol.addf("final sweep: %v", err)
			return w.viol.list
		}
		for k := base; k < base+chunk; k++ {
			for tn := 0; tn < svcTenants; tn++ {
				resp, err := cl.recv()
				if err != nil {
					w.viol.addf("final sweep: %v", err)
					return w.viol.list
				}
				want := int(w.loc[k%loadThreads][k]) == tn
				if resp.OK() != want || (want && (len(resp.Vals) != 1 || resp.Vals[0] != tokenOf(k))) {
					w.viol.addf("key %d at tenant %d: %s %v; model says tenant %d", k, tn, resp.Status, resp.Vals, w.loc[k%loadThreads][k])
				}
			}
		}
	}
	return w.viol.list
}

func (w *svcPipe) layerMetrics(m metrics, c *clock) { w.svcBase.layerMetrics(m, c, pipeWindow) }
