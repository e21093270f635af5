package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pad"
)

// Stage indexes one segment of a request-scoped span: the wall time of
// one wire request decomposed into where it was actually spent. The
// taxonomy follows the kvserver request path (docs/observability.md):
type Stage uint8

// The stage taxonomy. Queue is the accept→worker-borrow wait (pool
// queueing, invisible to service-time histograms because they start
// after the borrow); Parse is request-line parsing; Exec is time inside
// the data-path operation (including kcas retries and helping — the
// span's Publishes/Helps/Aborts sub-counters attribute it); Degrade is
// degradation overhead (retry backoff sleeps between exhausted
// attempts); Write is response serialization and flush.
const (
	StageQueue Stage = iota
	StageParse
	StageExec
	StageDegrade
	StageWrite

	// NumStages bounds the stage set.
	NumStages
)

var stageNames = [NumStages]string{
	StageQueue:   "queue",
	StageParse:   "parse",
	StageExec:    "execute",
	StageDegrade: "degrade",
	StageWrite:   "write",
}

// String returns the stage's wire name (used in span JSON, the METRICS
// per-stage series and tracecheck output).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// StageFromString resolves a wire name back to its Stage.
func StageFromString(s string) (Stage, bool) {
	for i, n := range stageNames {
		if n == s {
			return Stage(i), true
		}
	}
	return 0, false
}

// Span is one completed request's latency attribution: wall time
// decomposed into stages, plus the kcas protocol work the request's
// execute stage performed (per-thread counter deltas). The Req id is
// also stamped into every tracer Event the serving thread records while
// the request is current, so a slow span's publish/help/commit chain is
// recoverable from the trace.
type Span struct {
	// Req is the server-unique request id (1-based; 0 means "no
	// request" in tracer events).
	Req uint64
	// TID is the serving thread's registered id (matches tracer TIDs);
	// Worker is the serving worker's pool index (the latency stripe).
	TID    int32
	Worker int32
	// Tenant is the request's (source) tenant; -1 when not applicable.
	Tenant int32
	// Op is the protocol verb served; Status the response's status
	// token (OK, NF, BUSY, TIMEOUT, FAIL, ...).
	Op     string
	Status string
	// StartNS is nanoseconds since the span recorder's epoch (shared
	// with the tracer's, so spans and protocol events align on one
	// timeline); WallNS the span's full wall time including queue wait.
	StartNS int64
	WallNS  int64
	// Stage holds per-stage nanoseconds. Stages are measured as
	// disjoint intervals of the request's wall time; their sum is ≤
	// WallNS (the remainder is inter-stage bookkeeping, normally
	// negligible — cmd/tracecheck validates this).
	Stage [NumStages]int64
	// Publishes/Helps/Aborts are the serving thread's kcas counter
	// deltas over the execute stage: how many descriptors the request
	// announced, how many times it helped peers' operations, and how
	// many announced attempts aborted. Zero when the metrics registry
	// is off.
	Publishes uint64
	Helps     uint64
	Aborts    uint64
}

// Dominant returns the stage holding the largest share of the span's
// time (ties resolve to the earliest stage).
func (s Span) Dominant() Stage {
	best := Stage(0)
	for st := Stage(1); st < NumStages; st++ {
		if s.Stage[st] > s.Stage[best] {
			best = st
		}
	}
	return best
}

// spanJSON is the wire form of a Span: one JSON object per line in
// trace dumps (distinguished from events by the top-level "span" key)
// and the element type of the SLOW verb's exemplar list.
type spanJSON struct {
	Span      int              `json:"span"` // always 1: record discriminator
	Req       uint64           `json:"req"`
	TID       int32            `json:"tid"`
	Worker    int32            `json:"worker"`
	Tenant    int32            `json:"tenant"`
	Op        string           `json:"op"`
	Status    string           `json:"status"`
	StartNS   int64            `json:"start_ns"`
	WallNS    int64            `json:"wall_ns"`
	Stages    map[string]int64 `json:"stages"`
	Publishes uint64           `json:"kcas_publishes"`
	Helps     uint64           `json:"kcas_helps"`
	Aborts    uint64           `json:"kcas_aborts"`
}

// MarshalJSON serializes the span with named stages.
func (s Span) MarshalJSON() ([]byte, error) {
	j := spanJSON{
		Span: 1, Req: s.Req, TID: s.TID, Worker: s.Worker, Tenant: s.Tenant,
		Op: s.Op, Status: s.Status, StartNS: s.StartNS, WallNS: s.WallNS,
		Stages:    make(map[string]int64, NumStages),
		Publishes: s.Publishes, Helps: s.Helps, Aborts: s.Aborts,
	}
	for st := Stage(0); st < NumStages; st++ {
		j.Stages[st.String()] = s.Stage[st]
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the named-stage wire form. Unknown stage names
// are an error — the reader is strict the same way ReadJSONL is.
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Span{
		Req: j.Req, TID: j.TID, Worker: j.Worker, Tenant: j.Tenant,
		Op: j.Op, Status: j.Status, StartNS: j.StartNS, WallNS: j.WallNS,
		Publishes: j.Publishes, Helps: j.Helps, Aborts: j.Aborts,
	}
	for name, ns := range j.Stages {
		st, ok := StageFromString(name)
		if !ok {
			return fmt.Errorf("unknown span stage %q", name)
		}
		s.Stage[st] = ns
	}
	return nil
}

// spanRing is one worker's overwrite-oldest buffer of completed spans
// and its worker's tail exemplars: top holds the K slowest spans the
// worker finished, and min indexes the fastest of them once top is full
// — the wall time a span must beat to be retained. One writer (the
// worker's Finish) and the readers take mu.
type spanRing struct {
	mu    sync.Mutex
	buf   []Span
	n     uint64
	drops uint64
	top   []Span
	min   int
	_     pad.Line
}

// offer retains sp among the ring's K slowest spans (r.mu held). The
// gate is one compare against the K-th slowest; only a replacement
// rescans for the new K-th.
func (r *spanRing) offer(sp Span) {
	if len(r.top) < cap(r.top) {
		r.top = append(r.top, sp)
		if len(r.top) < cap(r.top) {
			return
		}
	} else if sp.WallNS > r.top[r.min].WallNS {
		r.top[r.min] = sp
	} else {
		return
	}
	r.min = 0
	for i := 1; i < len(r.top); i++ {
		if r.top[i].WallNS < r.top[r.min].WallNS {
			r.min = i
		}
	}
}

// DefaultSpanBuf is the per-worker completed-span ring capacity when
// Config.SpanBuf is zero.
const DefaultSpanBuf = 1024

// DefaultSpanTopK is the number of tail exemplars retained when
// Config.SpanTopK is zero.
const DefaultSpanTopK = 32

// Spans is the request-span recorder: per-worker overwrite-oldest rings
// of completed spans, each keeping its worker's K slowest spans as tail
// exemplars with their full stage breakdown. A nil *Spans is the
// disabled state — every method is a nil check and the request path
// stays allocation-free.
//
// A worker writes only its own ring, so recording a span contends with
// nothing but a reader (drain, SLOW). Since the K slowest spans overall
// are among the union of every worker's K slowest, Exemplars returns
// exactly the K slowest spans since the recorder was built.
type Spans struct {
	epoch  time.Time
	rings  []spanRing
	reqSeq atomic.Uint64
	topK   int
}

// NewSpans builds a span recorder with one ring of perWorker completed
// spans (rounded up to a power of two; <=0 selects DefaultSpanBuf) per
// worker and topK tail exemplars (<=0 selects DefaultSpanTopK).
func NewSpans(workers, perWorker, topK int) *Spans {
	return newSpansAt(time.Now(), workers, perWorker, topK)
}

func newSpansAt(epoch time.Time, workers, perWorker, topK int) *Spans {
	if workers <= 0 {
		workers = 1
	}
	if perWorker <= 0 {
		perWorker = DefaultSpanBuf
	}
	if topK <= 0 {
		topK = DefaultSpanTopK
	}
	perWorker = pad.CeilPow2(perWorker)
	s := &Spans{epoch: epoch, rings: make([]spanRing, workers), topK: topK}
	for i := range s.rings {
		s.rings[i].buf = make([]Span, perWorker)
		// top is preallocated at capacity so Finish never allocates.
		s.rings[i].top = make([]Span, 0, topK)
	}
	return s
}

// NextReq hands out the next request id (1-based so 0 stays the
// tracer's "no current request" sentinel). Nil receivers return 0.
func (s *Spans) NextReq() uint64 {
	if s == nil {
		return 0
	}
	return s.reqSeq.Add(1)
}

// SinceEpoch converts a wall-clock instant to span-timeline
// nanoseconds.
func (s *Spans) SinceEpoch(t time.Time) int64 {
	if s == nil {
		return 0
	}
	return t.Sub(s.epoch).Nanoseconds()
}

// Finish records one completed span into worker's ring and offers it to
// the worker's tail exemplars. Allocation-free; a nil receiver is a
// no-op.
func (s *Spans) Finish(worker int, sp Span) {
	if s == nil {
		return
	}
	r := &s.rings[worker]
	r.mu.Lock()
	if r.n >= uint64(len(r.buf)) {
		r.drops++
	}
	r.buf[int(r.n)&(len(r.buf)-1)] = sp
	r.n++
	r.offer(sp)
	r.mu.Unlock()
}

// Exemplars returns the K slowest spans recorded so far, slowest first:
// every worker's retained spans merged.
func (s *Spans) Exemplars() []Span {
	if s == nil {
		return nil
	}
	out := make([]Span, 0, s.topK)
	for i := range s.rings {
		r := &s.rings[i]
		r.mu.Lock()
		out = append(out, r.top...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WallNS > out[j].WallNS })
	if len(out) > s.topK {
		out = out[:s.topK]
	}
	return out
}

// Completed returns every span still buffered in the per-worker rings,
// merged and sorted by start time. The rings are not reset — the trace
// dump path reads once at drain.
func (s *Spans) Completed() []Span {
	if s == nil {
		return nil
	}
	var out []Span
	for i := range s.rings {
		r := &s.rings[i]
		r.mu.Lock()
		kept := r.n
		if kept > uint64(len(r.buf)) {
			kept = uint64(len(r.buf))
		}
		for j := uint64(0); j < kept; j++ {
			out = append(out, r.buf[(r.n-kept+j)&uint64(len(r.buf)-1)])
		}
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// Dropped reports how many completed spans were overwritten in the
// rings before being read (exported as spans_dropped_total when metrics
// are also on).
func (s *Spans) Dropped() uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for i := range s.rings {
		r := &s.rings[i]
		r.mu.Lock()
		total += r.drops
		r.mu.Unlock()
	}
	return total
}

// WriteSpansJSONL serializes spans one JSON object per line (the same
// framing as WriteJSONL event lines; the top-level "span" key
// discriminates the two record types in a mixed trace file).
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a mixed trace file — event lines (WriteJSONL) and
// span lines (WriteSpansJSONL) interleaved in any order — strictly:
// malformed lines, unknown event kinds and unknown stage names are
// errors. cmd/tracecheck uses it.
func ReadTrace(r io.Reader) ([]Event, []Span, error) {
	var events []Event
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Span int `json:"span"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		if probe.Span != 0 {
			var sp Span
			if err := sp.UnmarshalJSON(raw); err != nil {
				return nil, nil, fmt.Errorf("line %d: %w", line, err)
			}
			spans = append(spans, sp)
			continue
		}
		ev, err := parseEventLine(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return events, spans, nil
}

// WriteChromeTraceWith serializes protocol events (instant events, as
// WriteChromeTrace) plus spans as Chrome "complete" (ph:"X") duration
// events — one slice per nonzero stage on the serving thread's row, so
// a slow request renders as a bar decomposed into queue / parse /
// execute / degrade / write, with the request id in args for
// cross-referencing the instant events it stamped.
func WriteChromeTraceWith(w io.Writer, events []Event, spans []Span) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	sep := func() string {
		if first {
			first = false
			return ""
		}
		return ","
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw,
			`%s{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d.%03d,"args":{"peer":%d,"ref":%d,"req":%d}}`,
			sep(), e.Kind.String(), e.TID, e.TS/1000, e.TS%1000, e.Peer, e.Ref, e.Req); err != nil {
			return err
		}
	}
	for _, sp := range spans {
		off := sp.StartNS
		for st := Stage(0); st < NumStages; st++ {
			d := sp.Stage[st]
			if d <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(bw,
				`%s{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%d.%03d,"dur":%d.%03d,"args":{"req":%d,"op":%q,"status":%q}}`,
				sep(), st.String(), sp.TID, off/1000, off%1000, d/1000, d%1000, sp.Req, sp.Op, sp.Status); err != nil {
				return err
			}
			off += d
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
