package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/backoff"
	"repro/internal/kvwire"
	"repro/internal/latency"
	"repro/internal/obs"
)

// Config shapes one Server.
type Config struct {
	// Tenants is the number of tenants; each owns one map and one queue
	// (default 4).
	Tenants int
	// Workers bounds concurrent connections: each connection handler
	// borrows one registered repro.Thread for its lifetime, so at most
	// Workers connections are served at once and further accepts wait
	// (default 16).
	Workers int
	// Shards/Buckets shape each tenant map (per NewShardedHashMap;
	// defaults 8 shards × 8 buckets).
	Shards, Buckets int
	// Arena caps container nodes across all tenants (default 1<<20).
	Arena int
	// DescCapacity caps k-word CAS descriptors across the runtime
	// (default: the core default, 1<<18). Driving the server past it
	// yields BUSY responses, not a crash.
	DescCapacity int
	// Deadline bounds one request's service time: resource-exhaustion
	// retries stop and the request answers TIMEOUT once it has been in
	// service this long. Zero disables the retry loop — exhaustion
	// answers BUSY immediately.
	Deadline time.Duration
	// WriteTimeout bounds one socket write (a flushed batch of
	// responses); a client that cannot drain its responses within it is
	// disconnected (shed) so it cannot pin a worker forever. Zero
	// disables.
	WriteTimeout time.Duration
	// SLO enables the per-tenant overload shedder: when the windowed
	// p99 service time exceeds SLO, the highest tenant ids (lowest
	// priority) get BUSY before execution, one more tenant per control
	// period the overload persists; recovered windows re-admit them.
	// Zero disables shedding.
	SLO time.Duration
	// Fault, when non-nil, is installed as the runtime's fault injector
	// (chaos testing; see internal/fault). Drain releases any parked
	// threads before waiting.
	Fault *repro.FaultPlan
	// Metrics enables the runtime metrics registry: the METRICS wire
	// verb serves its snapshot in Prometheus text format, STATS carries
	// it as the "obs" block, and the server's degradation counters are
	// registered into it. main defaults it on (-metrics=false to
	// disable); the zero Config leaves it off.
	Metrics bool
	// Trace enables the descriptor-protocol tracer; WriteTrace drains
	// it as JSONL (main's -trace flag writes it at SIGTERM drain).
	// TraceBuf sizes the per-thread rings (0 = obs default).
	Trace    bool
	TraceBuf int
	// Spans enables the request-scoped span layer: each data-path
	// request's wall time is decomposed into queue/parse/execute/
	// degrade/write stages, recorded into per-stage histograms (STATS
	// "stages" block, METRICS stage_* series) and per-worker rings, with
	// the slowest requests retained as tail exemplars behind a windowed-
	// p99 threshold gate and served by the SLOW wire verb. SpanBuf sizes
	// the per-worker completed-span rings and SpanTopK the exemplar
	// buffer (0 = obs defaults).
	Spans    bool
	SpanBuf  int
	SpanTopK int
}

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	if c.Arena <= 0 {
		c.Arena = 1 << 20
	}
	return c
}

// shedPeriod is the overload controller's sampling interval: long
// enough for a meaningful windowed p99, short enough to shed within a
// human-noticeable overload.
const shedPeriod = 250 * time.Millisecond

// worker is one connection handler's identity: a registered Thread
// (the per-goroutine context every container call needs) plus the
// latency recorder stripe index it owns.
type worker struct {
	idx int
	th  *repro.Thread
}

// Server is the composed-KV network service: per-tenant lock-free maps
// and queues from one shared runtime, the kvwire line protocol on top,
// and the paper's composition — Move, TransferKeys, DrainN — exposed
// as the cross-tenant product operations. Each connection is served by
// one borrowed worker (Thread + histogram stripe); service times are
// recorded per (tenant, op) into striped HDR histograms and reported
// by STATS without stopping traffic.
//
// Degradation paths (see docs/robustness.md): resource exhaustion
// answers BUSY/TIMEOUT instead of crashing, slow clients are shed by
// write timeout, overload sheds low-priority tenants against the SLO,
// fault-killed workers are retired (never returned to the pool), and
// Drain performs the SIGTERM graceful shutdown.
type Server struct {
	cfg     Config
	rt      *repro.Runtime
	setup   *repro.Thread // construction + drain-time audit thread
	maps    []*repro.HashMap
	queues  []*repro.Queue
	rec     *latency.Recorder
	workers chan *worker
	started time.Time

	// Span layer (nil when Config.Spans is off; every use is nil-safe
	// or gated, so the disabled request path stays allocation-free).
	spans  *obs.Spans
	stages *latency.Stages
	reg    *obs.Registry
	trc    *obs.Tracer

	draining  atomic.Bool
	shedLevel atomic.Int32
	shedStop  chan struct{}

	// Degradation counters (kvwire.RobustCounters, server-side fields).
	busy        atomic.Uint64
	timeouts    atomic.Uint64
	shed        atomic.Uint64
	slowClients atomic.Uint64
	lostWorkers atomic.Uint64

	// Socket writes and the responses they carried, over all connections
	// (connWriter): responses_total / flushes_total is how many responses
	// one write(2) amortizes.
	flushes   atomic.Uint64
	responses atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds the runtime, tenant containers and worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rc := repro.Config{
		MaxThreads:    cfg.Workers + 2,
		ArenaCapacity: cfg.Arena,
		DescCapacity:  cfg.DescCapacity,
		Obs: repro.ObsConfig{
			Metrics: cfg.Metrics, Trace: cfg.Trace, TraceBuf: cfg.TraceBuf,
			Spans: cfg.Spans, SpanBuf: cfg.SpanBuf, SpanTopK: cfg.SpanTopK,
		},
	}
	if cfg.Fault != nil {
		rc.Fault = cfg.Fault
	}
	rt := repro.NewRuntime(rc)
	setup := rt.RegisterThread()
	s := &Server{
		cfg:      cfg,
		rt:       rt,
		setup:    setup,
		rec:      latency.NewRecorder(cfg.Workers, cfg.Tenants, int(kvwire.OpCount)),
		workers:  make(chan *worker, cfg.Workers),
		conns:    make(map[net.Conn]struct{}),
		started:  time.Now(),
		shedStop: make(chan struct{}),
	}
	for i := 0; i < cfg.Tenants; i++ {
		s.maps = append(s.maps, repro.NewShardedHashMap(setup, cfg.Shards, cfg.Buckets, 0))
		s.queues = append(s.queues, repro.NewQueue(setup))
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers <- &worker{idx: i, th: rt.RegisterThread()}
	}
	s.spans = rt.Obs().Spans()
	s.reg = rt.Obs().Metrics()
	s.trc = rt.Obs().Tracer()
	if s.spans != nil {
		names := make([]string, obs.NumStages)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			names[st] = st.String()
		}
		s.stages = latency.NewStages(cfg.Workers, names)
	}
	if reg := s.reg; reg != nil {
		// The degradation counters join the registry under the same
		// names the STATS robust block reports, so METRICS output and
		// RobustCounters reconcile by construction.
		reg.AddFunc("busy_total", s.busy.Load)
		reg.AddFunc("timeouts_total", s.timeouts.Load)
		reg.AddFunc("shed_total", s.shed.Load)
		reg.AddFunc("slow_clients_total", s.slowClients.Load)
		reg.AddFunc("lost_workers_total", s.lostWorkers.Load)
		reg.AddFunc("flushes_total", s.flushes.Load)
		reg.AddFunc("responses_total", s.responses.Load)
		// Self-describing scrapes: process uptime and build identity.
		reg.AddGauge("uptime_seconds", func() uint64 {
			return uint64(time.Since(s.started).Seconds())
		})
		reg.AddInfo("build_info", fmt.Sprintf("go_version=%q,gomaxprocs=\"%d\"",
			runtime.Version(), runtime.GOMAXPROCS(0)))
		if s.stages != nil {
			// Per-stage histogram series: one count plus current
			// percentile/max gauges per span stage, merged across
			// workers at scrape time.
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				st := st
				name := st.String()
				reg.AddFunc("stage_"+name+"_count_total", func() uint64 {
					return s.stages.Merged(int(st)).Count
				})
				reg.AddGauge("stage_"+name+"_p50_ns", func() uint64 {
					return uint64(s.stages.Merged(int(st)).Percentile(0.50))
				})
				reg.AddGauge("stage_"+name+"_p99_ns", func() uint64 {
					return uint64(s.stages.Merged(int(st)).Percentile(0.99))
				})
				reg.AddGauge("stage_"+name+"_max_ns", func() uint64 {
					return uint64(s.stages.Merged(int(st)).Max())
				})
			}
			reg.AddFunc("spans_dropped_total", s.spans.Dropped)
		}
	}
	if cfg.SLO > 0 {
		go s.shedController()
	}
	if s.spans != nil {
		go s.spanTuner()
	}
	return s
}

// Serve accepts connections on ln until Close. Each accepted
// connection borrows a worker from the pool (waiting for one when all
// are serving) and is handled until EOF.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Borrow wait is the queue stage of the connection's first
		// request: pool queueing happens here, before service time
		// starts, so without this measurement it hides from every
		// histogram. Only measured when spans are on.
		var borrowNS int64
		var w *worker
		if s.spans != nil {
			t := time.Now()
			w = <-s.workers
			borrowNS = time.Since(t).Nanoseconds()
		} else {
			w = <-s.workers
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.workers <- w
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn, w, borrowNS)
	}
}

// Close stops accepting, closes open connections and waits for
// handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.stopShedder()
	if ln != nil {
		ln.Close()
	}
	if s.cfg.Fault != nil {
		s.cfg.Fault.Release() // a parked handler would hang the Wait
	}
	s.wg.Wait()
}

// Drain is the graceful counterpart of Close (the SIGTERM path): stop
// accepting, let every in-flight request finish and its response
// flush, then return with the server quiesced. Open connections are
// not closed mid-response — each handler is unblocked at its next read
// (an immediate read deadline) and exits after completing the request
// it was serving and flushing every response it had buffered; request
// lines of the same batch it had not started are dropped unexecuted.
// Parked fault actions are released first, so a chaos plan cannot wedge
// the drain. After Drain the caller reads the final Stats and Audit and
// exits.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.stopShedder()
	if ln != nil {
		ln.Close()
	}
	if s.cfg.Fault != nil {
		s.cfg.Fault.Release()
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Now()) // unblock the reader; in-flight work finishes
	}
	s.wg.Wait()
}

func (s *Server) stopShedder() {
	select {
	case <-s.shedStop:
	default:
		close(s.shedStop)
	}
}

// SetupThread exposes the construction thread for post-drain audits:
// after Drain no worker thread is guaranteed live (a fault plan may
// have killed some), but the setup thread never runs data-path
// requests and survives. The audit sweep it performs also helps any
// descriptor a killed worker left announced to completion.
func (s *Server) SetupThread() *repro.Thread { return s.setup }

// shedController runs while SLO shedding is enabled: each period it
// computes the p99 of the samples recorded in that period (a windowed
// delta, so recovery is observable) and moves the shed level — the
// count of highest-id tenants answered BUSY — one notch toward the
// overload verdict. Tenant priority is id order: tenant 0 is shed last.
func (s *Server) shedController() {
	tick := time.NewTicker(shedPeriod)
	defer tick.Stop()
	prev := s.rec.MergedAll()
	for {
		select {
		case <-s.shedStop:
			return
		case <-tick.C:
		}
		cur := s.rec.MergedAll()
		win := cur.Sub(prev)
		prev = cur
		level := s.shedLevel.Load()
		switch {
		case win.Count >= 16 && time.Duration(win.Percentile(0.99)) > s.cfg.SLO:
			if int(level) < s.cfg.Tenants-1 {
				s.shedLevel.Store(level + 1)
			}
		case level > 0:
			// A calm (or idle) window re-admits one tenant.
			s.shedLevel.Store(level - 1)
		}
	}
}

// spanTuner runs while spans are enabled: each period it recomputes the
// windowed p99 of the service-time recorder (the same windowed delta
// the overload controller uses) and installs it as the tail-exemplar
// threshold, so under a load shift the exemplar buffer self-tunes —
// only requests at or beyond the *current* tail displace retained
// exemplars. Idle windows (too few samples for a meaningful p99) leave
// the previous threshold standing.
func (s *Server) spanTuner() {
	tick := time.NewTicker(shedPeriod)
	defer tick.Stop()
	prev := s.rec.MergedAll()
	for {
		select {
		case <-s.shedStop:
			return
		case <-tick.C:
		}
		cur := s.rec.MergedAll()
		win := cur.Sub(prev)
		prev = cur
		if win.Count >= 16 {
			s.spans.SetThreshold(win.Percentile(0.99))
		}
	}
}

// shouldShed reports whether the overload controller is currently
// shedding ops addressed to (or sourced from) tenant tn.
func (s *Server) shouldShed(tn int) bool {
	level := int(s.shedLevel.Load())
	return level > 0 && tn >= s.cfg.Tenants-level
}

// maxLine caps one request line: the limit the connection loop has
// always had (it was bufio.Scanner's), now answered with an ERR instead
// of a silent close. It is also the size of a connection's read buffer,
// so it bounds what one read can deliver.
const maxLine = 64 << 10

// connWriter is the sink under a connection's bufio.Writer, so one
// Write here is one write(2) on the socket, whether handle flushed or
// the buffer overflowed under a client that does not read. Everything
// that is per socket write rather than per response lives here: the
// write deadline, the flush and response counters, and the verdict that
// a client which let the deadline pass is a slow client.
type connWriter struct {
	s       *Server
	conn    net.Conn
	pending uint64 // responses buffered since the last write
}

func (cw *connWriter) Write(p []byte) (int, error) {
	s := cw.s
	if s.cfg.WriteTimeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	s.flushes.Add(1)
	s.responses.Add(cw.pending)
	cw.pending = 0
	n, err := cw.conn.Write(p)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.slowClients.Add(1) // shed the client that can't drain
		}
	}
	return n, err
}

// lineBuffered reports whether the reads so far have already delivered
// another complete request line.
func lineBuffered(in *bufio.Reader) bool {
	buf, _ := in.Peek(in.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// handle serves one connection a batch at a time: it executes every
// complete request line the last read delivered, appending each response
// to the write buffer, and flushes when no complete line remains — so a
// lone request is answered at once and a pipelined window costs one
// socket write. The batch is whatever the read returned; there is no
// timer and no size threshold. Two invariants: handle never blocks in a
// read holding unflushed responses, and every response of a request that
// executed reaches the socket before the connection closes, whichever
// way the loop ends (the deferred flush below).
func (s *Server) handle(conn net.Conn, w *worker, borrowNS int64) {
	in := bufio.NewReaderSize(conn, maxLine)
	cw := &connWriter{s: s, conn: conn}
	out := bufio.NewWriter(cw)
	defer func() {
		// EOF, read error, drain, write error (Flush then returns the
		// same error again) and a fault-killed worker all leave through
		// here, the last by runtime.Goexit with its batch-mates' responses
		// still buffered.
		out.Flush()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		// A fault-killed handler exits via runtime.Goexit mid-operation:
		// its Thread may hold announced move state and must never serve
		// again. Retire it (the pool shrinks by one; peers complete the
		// operation it was lost in) instead of poisoning the pool.
		if w.th.MoveInFlight() {
			s.lostWorkers.Add(1)
		} else {
			s.workers <- w
		}
		s.wg.Done()
	}()
	var req kvwire.Request // its key storage is reused by every line
	for {
		line, rerr := in.ReadSlice('\n')
		switch {
		case rerr == nil:
			line = line[:len(line)-1]
		case rerr == io.EOF && len(line) > 0:
			// A client that half-closed after an unterminated last line
			// still gets it served.
		case rerr == bufio.ErrBufferFull:
			out.WriteString("ERR line too long\n")
			cw.pending++
			return
		default:
			return
		}
		var sp obs.Span
		resp := s.exec(w, &req, line, out.AvailableBuffer(), &sp)
		// sp.Op is set iff exec opened a span (spans on, data-path op,
		// clean parse); finish it around the response write so the
		// write stage and full wall time land in the record. Only the
		// request that ends a batch pays for the flush there: its
		// batch-mates' write stage is the append to the buffer.
		spanning := sp.Op != ""
		var tw time.Time
		if spanning {
			if borrowNS > 0 {
				// The connection's first request absorbs the worker
				// borrow wait; the span starts at accept, not at parse.
				sp.Stage[obs.StageQueue] = borrowNS
				sp.StartNS -= borrowNS
				borrowNS = 0 // attributed once
			}
			tw = time.Now()
		}
		_, err := out.Write(append(resp, '\n'))
		cw.pending++
		if err == nil && !lineBuffered(in) {
			err = out.Flush()
		}
		if spanning {
			now := time.Now()
			sp.Stage[obs.StageWrite] = now.Sub(tw).Nanoseconds()
			sp.WallNS = s.spans.SinceEpoch(now) - sp.StartNS
			s.finishSpan(w, sp)
		}
		if err != nil || rerr != nil || s.draining.Load() {
			return // graceful drain: stop reading; the deferred flush sends what executed
		}
	}
}

// finishSpan records a completed span into the worker's ring, the
// per-stage histograms and the exemplar gate, then clears the serving
// thread's current-request slot in the tracer.
func (s *Server) finishSpan(w *worker, sp obs.Span) {
	s.spans.Finish(w.idx, sp)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		s.stages.RecordNS(w.idx, int(st), sp.Stage[st])
	}
	s.trc.SetRequest(w.th.ID(), 0)
}

// exec parses and applies one request line, recording the data-path
// service time against the request's (source) tenant. Degradation
// checks run before execution: a shed verdict or a resource-exhaustion
// failure answers BUSY/TIMEOUT with the operation guaranteed
// unexecuted.
//
// When spans are enabled, exec opens a span for every cleanly-parsed
// data-path request (sp.Op set marks it open; control verbs and parse
// errors stay unspanned): parse and execute stage times, degradation
// backoff (accumulated by applyWithRetry), the serving thread's kcas
// counter deltas, and the request id — also installed as the tracer's
// current request, so every protocol event the execution records
// carries it. The caller (handle) closes the span around the response
// write.
//
// req is the connection's reusable Request and dst an empty slice of
// its write buffer: the response is appended to dst and returned, so a
// request served from both allocates nothing for parse or response.
func (s *Server) exec(w *worker, req *kvwire.Request, line, dst []byte, sp *obs.Span) []byte {
	spanning := s.spans != nil
	var t0 time.Time
	if spanning {
		t0 = time.Now()
	}
	if err := req.Parse(line, s.cfg.Tenants); err != nil {
		return append(append(dst, "ERR "...), err.Error()...)
	}
	if req.Op >= kvwire.OpCount {
		return s.execControl(w, req.Op, dst)
	}
	tid := w.th.ID()
	if spanning {
		sp.Req = s.spans.NextReq()
		sp.TID = int32(tid)
		sp.Worker = int32(w.idx)
		sp.Tenant = int32(req.Tenant)
		sp.Op = req.Op.String()
		sp.StartNS = s.spans.SinceEpoch(t0)
		sp.Stage[obs.StageParse] = time.Since(t0).Nanoseconds()
		s.trc.SetRequest(tid, sp.Req)
	}
	if s.shouldShed(req.Tenant) {
		s.shed.Add(1)
		s.busy.Add(1)
		if spanning {
			sp.Status = "BUSY"
		}
		return append(dst, "BUSY"...)
	}
	var pub0, help0, abort0 uint64
	if spanning && s.reg != nil {
		pub0 = s.reg.ThreadValue(tid, obs.KCASPublish)
		help0 = s.reg.ThreadValue(tid, obs.KCASHelp)
		abort0 = s.reg.ThreadValue(tid, obs.KCASAbort)
	}
	t1 := time.Now()
	resp := s.applyWithRetry(w.th, req, dst, t1, sp)
	d := time.Since(t1)
	s.rec.Record(w.idx, req.Tenant, int(req.Op), d)
	if spanning {
		// Execute is service time minus the backoff sleeps the retry
		// loop attributed to the degrade stage.
		execNS := d.Nanoseconds() - sp.Stage[obs.StageDegrade]
		if execNS < 0 {
			execNS = 0
		}
		sp.Stage[obs.StageExec] = execNS
		if s.reg != nil {
			sp.Publishes = s.reg.ThreadValue(tid, obs.KCASPublish) - pub0
			sp.Helps = s.reg.ThreadValue(tid, obs.KCASHelp) - help0
			sp.Aborts = s.reg.ThreadValue(tid, obs.KCASAbort) - abort0
		}
		sp.Status = statusToken(resp)
	}
	return resp
}

// statuses are the protocol's response status tokens (kvwire.Response).
var statuses = [...]string{"OK", "NF", "EXISTS", "FAIL", "BUSY", "TIMEOUT", "ERR"}

// statusToken returns the response's leading status token ("OK 7" →
// "OK") as the constant, so a span's Status costs no allocation.
func statusToken(resp []byte) string {
	tok, _, _ := bytes.Cut(resp, []byte{' '})
	for _, st := range statuses {
		if string(tok) == st {
			return st
		}
	}
	return string(tok)
}

// applyWithRetry runs the request under Thread.Try, absorbing resource
// exhaustion: without a deadline the first exhaustion answers BUSY;
// with one, retries with jittered backoff continue until the deadline,
// then answer TIMEOUT. Both statuses guarantee non-execution — Try
// unwinds from init-phase code, before the operation publishes
// anything. Every attempt appends its response to the same empty dst.
func (s *Server) applyWithRetry(th *repro.Thread, req *kvwire.Request, dst []byte, t0 time.Time, sp *obs.Span) []byte {
	var resp []byte
	err := th.Try(func() { resp = s.apply(th, req, dst) })
	if err == nil {
		return resp
	}
	if s.cfg.Deadline <= 0 {
		s.busy.Add(1)
		return append(dst, "BUSY"...)
	}
	spanning := s.spans != nil
	jit := backoff.NewJitter(time.Millisecond, 50*time.Millisecond, uint64(t0.UnixNano()))
	for {
		if time.Since(t0) >= s.cfg.Deadline {
			s.timeouts.Add(1)
			return append(dst, "TIMEOUT"...)
		}
		if spanning {
			// The backoff sleep is degradation overhead, not execution:
			// attribute it to the degrade stage so a deadline-bound
			// retry storm doesn't masquerade as slow container code.
			ts := time.Now()
			jit.Sleep()
			sp.Stage[obs.StageDegrade] += time.Since(ts).Nanoseconds()
		} else {
			jit.Sleep()
		}
		if err = th.Try(func() { resp = s.apply(th, req, dst) }); err == nil {
			return resp
		}
	}
}

// apply executes one data-path request and appends its response to dst.
func (s *Server) apply(th *repro.Thread, req *kvwire.Request, dst []byte) []byte {
	switch req.Op {
	case kvwire.OpGet:
		if v, ok := s.maps[req.Tenant].Contains(th, req.Keys[0]); ok {
			return kvwire.AppendOK(dst, v)
		}
		return append(dst, "NF"...)
	case kvwire.OpPut:
		if s.maps[req.Tenant].Insert(th, req.Keys[0], req.Val) {
			return kvwire.AppendOK(dst)
		}
		return append(dst, "EXISTS"...)
	case kvwire.OpDel:
		if v, ok := s.maps[req.Tenant].Remove(th, req.Keys[0]); ok {
			return kvwire.AppendOK(dst, v)
		}
		return append(dst, "NF"...)
	case kvwire.OpPush:
		if s.queues[req.Tenant].Enqueue(th, req.Val) {
			return kvwire.AppendOK(dst)
		}
		return append(dst, "ERR queue full"...)
	case kvwire.OpPop:
		if v, ok := s.queues[req.Tenant].Dequeue(th); ok {
			return kvwire.AppendOK(dst, v)
		}
		return append(dst, "NF"...)
	case kvwire.OpMove:
		// The product composition: the entry leaves req.Tenant's map and
		// appears in req.DTenant's in one linearization — never in both,
		// never in neither.
		if v, ok := repro.Move(th, s.maps[req.Tenant], s.maps[req.DTenant], req.Keys[0], req.TKeys[0]); ok {
			return kvwire.AppendOK(dst, v)
		}
		return append(dst, "FAIL"...)
	case kvwire.OpXfer:
		vs, ok := repro.TransferKeys(th, s.maps[req.Tenant], s.maps[req.DTenant], req.Keys, req.TKeys)
		if !ok {
			return append(dst, "FAIL"...)
		}
		return kvwire.AppendOK(dst, vs...)
	case kvwire.OpDrain:
		vs := repro.DrainN(th, s.queues[req.Tenant], s.queues[req.DTenant], 0, 0, req.N)
		return kvwire.AppendOK(dst, vs...)
	}
	return append(dst, "ERR unreachable"...)
}

// execControl serves a control verb, appending its response to dst.
func (s *Server) execControl(w *worker, op kvwire.Op, dst []byte) []byte {
	switch op {
	case kvwire.OpPing:
		return kvwire.AppendOK(dst)
	case kvwire.OpStats:
		return appendJSON(dst, s.Stats())
	case kvwire.OpAudit:
		mapN, mapSum, queueN := s.Audit(w.th)
		return fmt.Appendf(dst, "OK %d %d %d", mapN, mapSum, queueN)
	case kvwire.OpMetrics:
		return s.metricsText(dst)
	case kvwire.OpSlow:
		if s.spans == nil {
			return append(dst, "ERR spans disabled"...)
		}
		return appendJSON(dst, kvwire.SlowDoc{
			ThresholdNS: s.spans.Threshold(),
			Dropped:     s.spans.Dropped(),
			Exemplars:   s.spans.Exemplars(),
		})
	}
	return append(dst, "ERR unreachable"...)
}

// appendJSON appends "OK <one-line JSON of doc>".
func appendJSON(dst []byte, doc any) []byte {
	b, err := json.Marshal(doc)
	if err != nil {
		return append(append(dst, "ERR "...), err.Error()...)
	}
	return append(append(dst, "OK "...), b...)
}

// metricsText appends the registry snapshot in Prometheus text format.
// It is the protocol's one multi-line response; the "# EOF" terminator
// (written by WritePrometheus, completed by the handler's newline)
// frames it for line-reading clients.
func (s *Server) metricsText(dst []byte) []byte {
	if s.reg == nil {
		return append(dst, "ERR metrics disabled"...)
	}
	b := bytes.NewBuffer(dst)
	if err := s.reg.Snapshot().WritePrometheus(b); err != nil {
		return append(append(dst, "ERR "...), err.Error()...)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// WriteTrace drains the protocol tracer and writes the events as
// JSONL, followed by the span layer's buffered request spans when
// spans are enabled (span lines carry a "span":1 discriminator; the
// mixed file is what cmd/tracecheck reads). A no-op (nil error, no
// output) when both surfaces are disabled. main calls it on the
// SIGTERM drain path after the server has quiesced.
func (s *Server) WriteTrace(w io.Writer) error {
	if s.trc != nil {
		if err := repro.WriteTraceJSONL(w, s.trc.Drain()); err != nil {
			return err
		}
	}
	if s.spans != nil {
		return repro.WriteSpansJSONL(w, s.spans.Completed())
	}
	return nil
}

// Stats merges the per-worker histogram stripes into the kvwire report
// document: one row per (tenant, op) with traffic, plus per-tenant
// "all" rows, plus the degradation counters (robust block). It is safe
// to call concurrently with traffic.
func (s *Server) Stats() kvwire.Doc {
	doc := kvwire.NewDoc()
	wall := float64(time.Since(s.started).Nanoseconds())
	for tn := 0; tn < s.cfg.Tenants; tn++ {
		for op := 0; op < int(kvwire.OpCount); op++ {
			snap := s.rec.Merged(tn, op)
			if snap.Count == 0 {
				continue
			}
			doc.Rows = append(doc.Rows, kvwire.RowFrom("kvserver",
				strconv.Itoa(tn), kvwire.Op(op).String(), s.cfg.Workers, snap, wall))
		}
		if snap := s.rec.MergedTenant(tn); snap.Count > 0 {
			doc.Rows = append(doc.Rows, kvwire.RowFrom("kvserver",
				strconv.Itoa(tn), "all", s.cfg.Workers, snap, wall))
		}
	}
	doc.Robust = &kvwire.RobustCounters{
		Busy:        s.busy.Load(),
		Timeouts:    s.timeouts.Load(),
		Shed:        s.shed.Load(),
		ShedLevel:   int(s.shedLevel.Load()),
		SlowClients: s.slowClients.Load(),
		LostWorkers: s.lostWorkers.Load(),
		Drained:     s.draining.Load(),
	}
	if reg := s.reg; reg != nil {
		// Same names, same registry as the METRICS verb; every known
		// series present even at zero (like the robust block).
		doc.Obs = reg.Snapshot().Counters
	}
	if s.stages != nil {
		// The span layer's per-stage breakdown, merged across workers:
		// where wall time actually went, one row per stage even at zero
		// traffic (grep-style assertions again).
		for st, name := range s.stages.Names() {
			doc.Stages = append(doc.Stages, kvwire.StageRowFrom(name, s.stages.Merged(st)))
		}
	}
	return doc
}

// Audit sweeps every tenant container and returns the conservation
// totals: map entries and wrapping value-sum, and queued elements.
// Composed operations never change any of them. The sweep races
// in-flight traffic benignly (each read is atomic) but is only an
// exact conservation witness on a quiesced server — kvload audits
// after its workers finish. The sweep's reads also help any descriptor
// a stalled or killed thread left announced, so a post-fault audit
// both verifies and completes.
func (s *Server) Audit(th *repro.Thread) (mapCount, mapSum, queueCount uint64) {
	for tn := 0; tn < s.cfg.Tenants; tn++ {
		for _, k := range s.maps[tn].Keys(th) {
			if v, ok := s.maps[tn].Contains(th, k); ok {
				mapCount++
				mapSum += v
			}
		}
		queueCount += uint64(s.queues[tn].Len(th))
	}
	return
}
