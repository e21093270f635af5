package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
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
	// Driving the server past it yields BUSY responses, not a crash: a
	// request that failed for want of arena nodes executed nothing and
	// answers BUSY at once.
	Arena int
	// WriteTimeout bounds one socket write (a flushed batch of
	// responses); a client that cannot drain its responses within it is
	// disconnected (shed) so it cannot pin a worker forever. Zero
	// disables.
	WriteTimeout time.Duration
	// Fault, when non-nil, is installed as the runtime's fault injector
	// (chaos testing; see internal/fault). Drain releases any parked
	// threads before waiting.
	Fault *repro.FaultPlan
	// Trace enables the descriptor-protocol tracer; WriteTrace drains
	// it as JSONL (main's -trace flag writes it at SIGTERM drain).
	Trace bool
	// Spans enables the request-scoped span layer: each data-path
	// request's wall time is decomposed into queue/parse/execute/write
	// stages, recorded into per-stage histograms (STATS "stages" block,
	// METRICS stage_* series), with the obs.TopK slowest requests since
	// boot retained as tail exemplars and served by the SLOW wire verb.
	// With Trace, every completed span is also kept in per-worker rings
	// for WriteTrace.
	Spans bool
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

// worker is one connection handler's identity: a registered Thread
// (the per-goroutine context every container call needs), the latency
// recorder stripe index it owns, and the buffer DRAIN writes its moved
// values into, so it does not allocate per request (XFER's values come
// back in the thread's own buffer).
type worker struct {
	idx  int
	th   *repro.Thread
	vals [kvwire.MaxDrainN]uint64
}

// Server is the composed-KV network service: per-tenant lock-free maps
// and queues from one shared runtime, the kvwire line protocol on top,
// and the paper's composition — Move, TransferKeys, DrainN — exposed
// as the cross-tenant product operations. Each connection is served by
// one borrowed worker (Thread + histogram stripe); service times are
// recorded per (tenant, op) into striped HDR histograms and reported
// by STATS without stopping traffic.
//
// The runtime metrics registry is always on: the METRICS wire verb
// serves its snapshot in Prometheus text format, STATS carries it as
// the "obs" block, and the degradation counters are registered into it.
//
// Degradation paths (see docs/robustness.md): resource exhaustion
// answers BUSY instead of crashing, slow clients are shed by
// write timeout, fault-killed workers are retired (never returned to
// the pool), and Drain performs the SIGTERM graceful shutdown.
type Server struct {
	cfg     Config
	rt      *repro.Runtime
	setup   *repro.Thread // construction + drain-time audit thread
	maps    []*repro.HashMap
	queues  []*repro.Queue
	rec     *latency.Recorder
	workers chan *worker
	started time.Time
	reg     *obs.Registry
	clock   *obs.Clock // the request path's one time base

	// Span layer and tracer (nil when Config.Spans or Config.Trace is
	// off; every use is nil-safe or gated, so the disabled request path
	// stays allocation-free).
	spans  *obs.Spans
	stages *latency.Recorder // one tenant, one op per obs.Stage
	trc    *obs.Tracer

	// spare is the scratch snapshot reports merge histogram stripes into
	// (scratch), so STATS and the stage series allocate no copy per
	// histogram.
	spare atomic.Pointer[latency.Snapshot]

	draining atomic.Bool

	// Degradation counters (kvwire.RobustCounters, server-side fields).
	busy        atomic.Uint64
	slowClients atomic.Uint64
	lostWorkers atomic.Uint64

	// Socket writes and the responses they carried, over all connections
	// (connWriter): responses_total / flushes_total is how many responses
	// one write(2) amortizes.
	flushes   atomic.Uint64
	responses atomic.Uint64

	mu     sync.Mutex
	ln     listener
	conns  map[conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds the runtime, tenant containers and worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rc := repro.Config{
		MaxThreads:    cfg.Workers + 2,
		ArenaCapacity: cfg.Arena,
		Obs:           repro.ObsConfig{Metrics: true, Trace: cfg.Trace, Spans: cfg.Spans},
	}
	if cfg.Fault != nil {
		rc.Fault = cfg.Fault
	}
	rt := repro.NewRuntime(rc)
	setup := rt.RegisterThread()
	s := &Server{
		cfg:     cfg,
		rt:      rt,
		setup:   setup,
		rec:     latency.NewRecorder(cfg.Workers, cfg.Tenants, int(kvwire.OpCount)),
		workers: make(chan *worker, cfg.Workers),
		conns:   make(map[conn]struct{}),
		started: time.Now(),
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
	s.clock = rt.Obs().Clock()
	s.trc = rt.Obs().Tracer()
	if s.spans != nil {
		s.stages = latency.NewRecorder(cfg.Workers, 1, int(obs.NumStages))
	}
	// The degradation counters join the registry under the same names
	// the STATS robust block reports, so METRICS output and
	// RobustCounters reconcile by construction.
	s.reg.AddFunc("busy_total", s.busy.Load)
	s.reg.AddFunc("slow_clients_total", s.slowClients.Load)
	s.reg.AddFunc("lost_workers_total", s.lostWorkers.Load)
	s.reg.AddFunc("flushes_total", s.flushes.Load)
	s.reg.AddFunc("responses_total", s.responses.Load)
	// Self-describing scrapes: process uptime and build identity.
	s.reg.AddGauge("uptime_seconds", func() uint64 {
		return uint64(time.Since(s.started).Seconds())
	})
	s.reg.AddInfo("build_info", fmt.Sprintf("go_version=%q,gomaxprocs=\"%d\"",
		runtime.Version(), runtime.GOMAXPROCS(0)))
	// The process's footprint, read at scrape time: a server that
	// allocates per request shows a heap climbing to the collector's
	// goal and a GC count growing with traffic.
	s.reg.AddGauge("go_heap_inuse_bytes", func() uint64 {
		return runtimeMetric("/memory/classes/heap/objects:bytes") +
			runtimeMetric("/memory/classes/heap/unused:bytes")
	})
	s.reg.AddFunc("go_gc_cycles_total", func() uint64 {
		return runtimeMetric("/gc/cycles/total:gc-cycles")
	})
	if s.stages != nil {
		// Per-stage histogram series: one count plus current
		// percentile/max gauges per span stage, merged across
		// workers at scrape time.
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			stage := func(read func(*latency.Snapshot) uint64) func() uint64 {
				return func() uint64 {
					snap := s.scratch()
					defer s.spare.Store(snap)
					s.stages.MergeInto(snap, 0, int(st))
					return read(snap)
				}
			}
			name := st.String()
			s.reg.AddFunc("stage_"+name+"_count_total", stage(func(h *latency.Snapshot) uint64 { return h.Count }))
			s.reg.AddGauge("stage_"+name+"_p50_ns", stage(func(h *latency.Snapshot) uint64 { return uint64(h.Percentile(0.50)) }))
			s.reg.AddGauge("stage_"+name+"_p99_ns", stage(func(h *latency.Snapshot) uint64 { return uint64(h.Percentile(0.99)) }))
			s.reg.AddGauge("stage_"+name+"_max_ns", stage(func(h *latency.Snapshot) uint64 { return uint64(h.Max()) }))
		}
		if cfg.Trace { // only the trace dump's spans have a ring to drop from
			s.reg.AddFunc("spans_dropped_total", s.spans.Dropped)
		}
	}
	return s
}

// runtimeMetric reads one uint64 runtime/metrics sample.
func runtimeMetric(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// listener is what Serve needs of listenTCP's socket or a test's pipes.
type listener interface {
	Accept() (conn, error)
	Close() error
}

// conn is what a handler needs of a connection: *os.File or net.Conn.
type conn interface {
	io.ReadWriteCloser
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Serve accepts connections on ln until Close. Each accepted
// connection borrows a worker from the pool (waiting for one when all
// are serving) and is handled until EOF.
func (s *Server) Serve(ln listener) error {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil
	}
	for {
		c, err := ln.Accept()
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
			t := s.clock.Now()
			w = <-s.workers
			borrowNS = s.clock.Now() - t
		} else {
			w = <-s.workers
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			s.workers <- w
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c, w, borrowNS)
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
	conns := make([]conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
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

// SetupThread exposes the construction thread for post-drain audits:
// after Drain no worker thread is guaranteed live (a fault plan may
// have killed some), but the setup thread never runs data-path
// requests and survives. The audit sweep it performs also helps any
// descriptor a killed worker left announced to completion.
func (s *Server) SetupThread() *repro.Thread { return s.setup }

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
	c       conn
	pending uint64 // responses buffered since the last write
}

func (cw *connWriter) Write(p []byte) (int, error) {
	s := cw.s
	if s.cfg.WriteTimeout > 0 {
		cw.c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	s.flushes.Add(1)
	s.responses.Add(cw.pending)
	cw.pending = 0
	n, err := cw.c.Write(p)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		s.slowClients.Add(1) // shed the client that can't drain
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
func (s *Server) handle(c conn, w *worker, borrowNS int64) {
	in := bufio.NewReaderSize(c, maxLine)
	cw := &connWriter{s: s, c: c}
	out := bufio.NewWriter(cw)
	defer func() {
		// EOF, read error, drain, write error (Flush then returns the
		// same error again) and a fault-killed worker all leave through
		// here, the last by runtime.Goexit with its batch-mates' responses
		// still buffered.
		out.Flush()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
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
		_, err := out.Write(append(resp, '\n'))
		cw.pending++
		if err == nil && !lineBuffered(in) {
			err = out.Flush()
		}
		// sp.Op is set iff exec opened a span (spans on, data-path op,
		// clean parse). Only the request that ends a batch pays for the
		// flush in its write stage: its batch-mates' is the append to
		// the buffer. The connection's first span absorbs the worker
		// borrow wait, so it starts at accept, not at parse.
		if sp.Op != "" {
			s.finishSpan(w, &sp, borrowNS)
			borrowNS = 0
		}
		if err != nil || rerr != nil || s.draining.Load() {
			return // graceful drain: stop reading; the deferred flush sends what executed
		}
	}
}

// finishSpan closes the span exec opened. It stamps written, the end of
// the write stage, which began at exec's executed stamp (StartNS plus
// the WallNS exec left), and charges borrowNS to the queue stage, which
// ends where the span's parse begins. The stages then partition
// [start − borrowNS, written] exactly. It records the span into the
// worker's ring and tail exemplars and the per-stage histograms, then
// clears the serving thread's current-request slot in the tracer.
func (s *Server) finishSpan(w *worker, sp *obs.Span, borrowNS int64) {
	written := s.clock.Now()
	sp.Stage[obs.StageWrite] = written - (sp.StartNS + sp.WallNS)
	sp.Stage[obs.StageQueue] = borrowNS
	sp.StartNS -= borrowNS
	sp.WallNS = written - sp.StartNS
	s.spans.Finish(w.idx, *sp)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		s.stages.Record(w.idx, 0, int(st), time.Duration(sp.Stage[st]))
	}
	s.trc.SetRequest(w.th.ID(), 0)
}

// exec parses and applies one request line, recording the data-path
// service time against the request's (source) tenant.
//
// exec reads the server's Clock at the stage boundaries it owns: start
// (spans only), parsed and executed. Service time is executed − parsed.
// When spans are enabled, exec opens a span for every cleanly-parsed
// data-path request (sp.Op set marks it open; control verbs and parse
// errors stay unspanned): parse and execute stage times, the serving
// thread's kcas counter deltas, and the request id — also installed as
// the tracer's current request, so every protocol event the execution
// records carries it. Opening the span counts as parse; the bookkeeping after
// the executed stamp counts as write. handle closes the span after the
// response write (finishSpan).
//
// req is the connection's reusable Request and dst an empty slice of
// its write buffer: the response is appended to dst and returned, so a
// request served from both allocates nothing for parse or response.
func (s *Server) exec(w *worker, req *kvwire.Request, line, dst []byte, sp *obs.Span) []byte {
	spanning := s.spans != nil
	var start int64
	if spanning {
		start = s.clock.Now()
	}
	if err := req.Parse(line, s.cfg.Tenants); err != nil {
		return append(append(dst, "ERR "...), err.Error()...)
	}
	if req.Op >= kvwire.OpCount {
		return s.execControl(w, req.Op, dst)
	}
	tid := w.th.ID()
	var pub0, help0, abort0 uint64
	if spanning {
		sp.Req = s.spans.NextReq()
		sp.TID = int32(tid)
		sp.Worker = int32(w.idx)
		sp.Tenant = int32(req.Tenant)
		sp.Op = req.Op.String()
		s.trc.SetRequest(tid, sp.Req)
		pub0 = s.reg.ThreadValue(tid, obs.KCASPublish)
		help0 = s.reg.ThreadValue(tid, obs.KCASHelp)
		abort0 = s.reg.ThreadValue(tid, obs.KCASAbort)
	}
	parsed := s.clock.Now()
	resp, ok := s.apply(w, req, dst)
	// The thread's Exhausted record is read, and so cleared, after every
	// request. A request that failed while it was set failed for want of
	// arena nodes and executed nothing (nodes are only allocated in init
	// phases, before anything is published), so it answers BUSY at once;
	// a DRAIN that moved elements first succeeded with them.
	if w.th.Exhausted() && !ok {
		s.busy.Add(1)
		resp = append(dst, "BUSY"...)
	}
	executed := s.clock.Now()
	s.rec.Record(w.idx, req.Tenant, int(req.Op), time.Duration(executed-parsed))
	if spanning {
		// WallNS runs to executed for now; finishSpan extends it.
		sp.StartNS = start
		sp.WallNS = executed - start
		sp.Stage[obs.StageParse] = parsed - start
		sp.Stage[obs.StageExec] = executed - parsed
		sp.Publishes = s.reg.ThreadValue(tid, obs.KCASPublish) - pub0
		sp.Helps = s.reg.ThreadValue(tid, obs.KCASHelp) - help0
		sp.Aborts = s.reg.ThreadValue(tid, obs.KCASAbort) - abort0
		sp.Status = statusToken(resp)
	}
	return resp
}

// statuses are the protocol's response status tokens (kvwire.Response).
var statuses = [...]string{"OK", "NF", "EXISTS", "FAIL", "BUSY", "ERR"}

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

// apply executes one data-path request on w's thread, appends its
// response to dst, and reports whether the operation succeeded; only a
// failed one can have failed for want of nodes.
func (s *Server) apply(w *worker, req *kvwire.Request, dst []byte) ([]byte, bool) {
	th := w.th
	switch req.Op {
	case kvwire.OpGet:
		if v, ok := s.maps[req.Tenant].Contains(th, req.Keys[0]); ok {
			return kvwire.AppendOK(dst, v), true
		}
		return append(dst, "NF"...), false
	case kvwire.OpPut:
		if s.maps[req.Tenant].Insert(th, req.Keys[0], req.Val) {
			return kvwire.AppendOK(dst), true
		}
		return append(dst, "EXISTS"...), false
	case kvwire.OpDel:
		if v, ok := s.maps[req.Tenant].Remove(th, req.Keys[0]); ok {
			return kvwire.AppendOK(dst, v), true
		}
		return append(dst, "NF"...), false
	case kvwire.OpPush:
		if s.queues[req.Tenant].Enqueue(th, req.Val) {
			return kvwire.AppendOK(dst), true
		}
		return append(dst, "ERR queue full"...), false
	case kvwire.OpPop:
		if v, ok := s.queues[req.Tenant].Dequeue(th); ok {
			return kvwire.AppendOK(dst, v), true
		}
		return append(dst, "NF"...), false
	case kvwire.OpMove:
		// The product composition: the entry leaves req.Tenant's map and
		// appears in req.DTenant's in one linearization — never in both,
		// never in neither.
		if v, ok := repro.Move(th, s.maps[req.Tenant], s.maps[req.DTenant], req.Keys[0], req.TKeys[0]); ok {
			return kvwire.AppendOK(dst, v), true
		}
		return append(dst, "FAIL"...), false
	case kvwire.OpXfer:
		// The values come back in the thread's own buffer. Target keys
		// that would be linked into one gap cannot be composed and answer
		// FAIL, like an absent source or an occupied target key.
		vs, ok := repro.TransferKeys(th, s.maps[req.Tenant], s.maps[req.DTenant], req.Keys, req.TKeys)
		if !ok {
			return append(dst, "FAIL"...), false
		}
		return kvwire.AppendOK(dst, vs...), true
	case kvwire.OpDrain:
		// A drain is a run of moves: any prefix that moved executed.
		vs := th.DrainN(s.queues[req.Tenant], s.queues[req.DTenant], 0, 0, req.N, w.vals[:0])
		return kvwire.AppendOK(dst, vs...), len(vs) > 0
	}
	return append(dst, "ERR unreachable"...), true
}

// execControl serves a control verb, appending its response to dst.
func (s *Server) execControl(w *worker, op kvwire.Op, dst []byte) []byte {
	switch op {
	case kvwire.OpPing:
		return kvwire.AppendOK(dst)
	case kvwire.OpStats:
		doc := s.Stats()
		return doc.AppendJSON(append(dst, "OK "...))
	case kvwire.OpAudit:
		mapN, mapSum, queueN := s.Audit(w.th)
		return fmt.Appendf(dst, "OK %d %d %d", mapN, mapSum, queueN)
	case kvwire.OpMetrics:
		return s.metricsText(dst)
	case kvwire.OpSlow:
		if s.spans == nil {
			return append(dst, "ERR spans disabled"...)
		}
		doc := kvwire.SlowDoc{Dropped: s.spans.Dropped(), Exemplars: s.spans.Exemplars()}
		return doc.AppendJSON(append(dst, "OK "...))
	}
	return append(dst, "ERR unreachable"...)
}

// metricsText appends the registry snapshot in Prometheus text format.
// It is the protocol's one multi-line response; the "# EOF" terminator
// (written by WritePrometheus, completed by the handler's newline)
// frames it for line-reading clients.
func (s *Server) metricsText(dst []byte) []byte {
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

// scratch returns an empty snapshot to merge histogram stripes into:
// the server's spare when no concurrent report holds it, else a new one.
// The caller gives it back with s.spare.Store.
func (s *Server) scratch() *latency.Snapshot {
	snap := s.spare.Swap(nil)
	if snap == nil {
		return new(latency.Snapshot)
	}
	snap.Reset()
	return snap
}

// Stats merges the per-worker histogram stripes into the kvwire report
// document: one row per (tenant, op) with traffic, plus per-tenant
// "all" rows, plus the degradation counters (robust block). Every row
// is merged straight from the histograms' counters into one scratch
// snapshot, so a call allocates no histogram copy, whatever the number
// of live cells. It is safe to call concurrently with traffic.
func (s *Server) Stats() kvwire.Doc {
	doc := kvwire.NewDoc()
	if rows := s.liveRows(); rows > 0 {
		doc.Rows = make([]kvwire.Row, 0, rows)
	}
	wall := float64(time.Since(s.started).Nanoseconds())
	snap := s.scratch()
	for tn := 0; tn < s.cfg.Tenants; tn++ {
		for op := 0; op < int(kvwire.OpCount); op++ {
			snap.Reset()
			if s.rec.MergeInto(snap, tn, op); snap.Count == 0 {
				continue
			}
			doc.Rows = append(doc.Rows, kvwire.RowFrom("kvserver",
				strconv.Itoa(tn), kvwire.Op(op).String(), s.cfg.Workers, *snap, wall))
		}
		snap.Reset()
		for op := 0; op < int(kvwire.OpCount); op++ {
			s.rec.MergeInto(snap, tn, op)
		}
		if snap.Count > 0 {
			doc.Rows = append(doc.Rows, kvwire.RowFrom("kvserver",
				strconv.Itoa(tn), "all", s.cfg.Workers, *snap, wall))
		}
	}
	if s.stages != nil {
		// The span layer's per-stage breakdown, merged across workers:
		// where wall time actually went, one row per stage even at zero
		// traffic (grep-style assertions again).
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			snap.Reset()
			s.stages.MergeInto(snap, 0, int(st))
			doc.Stages = append(doc.Stages, kvwire.StageRowFrom(st.String(), *snap))
		}
	}
	s.spare.Store(snap)
	if len(doc.Rows) == 0 {
		doc.Rows = nil // a pair that went live after liveRows but has no count yet: still "rows":null
	}
	doc.Robust = &kvwire.RobustCounters{
		Busy:        s.busy.Load(),
		SlowClients: s.slowClients.Load(),
		LostWorkers: s.lostWorkers.Load(),
		Drained:     s.draining.Load(),
	}
	// Same names, same registry as the METRICS verb; every known series
	// present even at zero (like the robust block). The stage series
	// take the spare back in turn.
	doc.Obs = s.reg.Snapshot().Counters
	return doc
}

// liveRows counts the rows Stats will build, one per (tenant, op) pair
// with traffic and one per tenant that has any, so that Stats allocates
// its rows once.
func (s *Server) liveRows() int {
	rows := 0
	for tn := 0; tn < s.cfg.Tenants; tn++ {
		ops := 0
		for op := 0; op < int(kvwire.OpCount); op++ {
			if s.rec.Live(tn, op) {
				ops++
			}
		}
		if ops > 0 {
			rows += ops + 1
		}
	}
	return rows
}

// Audit sweeps every tenant container and returns the conservation
// totals: map entries and wrapping value-sum, and queued elements.
// Composed operations never change any of them. Each map is summed in
// one walk of its lists (HashMap.Walk) and each queue counted by Len:
// one pass per container, no allocation, no arena node taken. The
// sweep races in-flight traffic benignly (each read is atomic) but is
// only an exact conservation witness on a quiesced server — kvload
// audits after its workers finish. The sweep's reads also help any
// descriptor a stalled or killed thread left announced, so a post-fault
// audit both verifies and completes.
func (s *Server) Audit(th *repro.Thread) (mapCount, mapSum, queueCount uint64) {
	for tn := 0; tn < s.cfg.Tenants; tn++ {
		s.maps[tn].Walk(th, func(_, v uint64) {
			mapCount++
			mapSum += v
		})
		queueCount += uint64(s.queues[tn].Len(th))
	}
	return
}
