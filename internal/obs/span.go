package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/pad"
)

// Stage indexes one segment of a request-scoped span, the wall time of
// one wire request split by where it went, along the kvserver request
// path (docs/observability.md).
type Stage uint8

// The stages. Queue is the accept→worker-borrow wait (invisible to
// service-time histograms, which start after the borrow); Parse is
// request-line parsing; Exec is the data-path operation, kcas retries
// and helping included (Publishes/Helps/Aborts attribute it); Write is
// response serialization and flush.
const (
	StageQueue Stage = iota
	StageParse
	StageExec
	StageWrite

	// NumStages bounds the stage set.
	NumStages
)

var stageNames = [NumStages]string{
	StageQueue: "queue",
	StageParse: "parse",
	StageExec:  "execute",
	StageWrite: "write",
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
	// Req is the server-unique request id (1-based; 0 is "none").
	Req uint64
	// TID is the serving thread's registered id (matches tracer TIDs);
	// Worker is the serving worker's pool index (the latency stripe).
	TID    int32
	Worker int32
	// Tenant is the request's (source) tenant; -1 when not applicable.
	Tenant int32
	// Op is the protocol verb served; Status the response's status
	// token (OK, NF, BUSY, FAIL, ...).
	Op     string
	Status string
	// StartNS is the runtime Clock's reading at the span's start
	// (shared with the tracer's events, so spans and protocol events
	// align on one timeline); WallNS the span's full wall time
	// including queue wait.
	StartNS int64
	WallNS  int64
	// Stage holds per-stage nanoseconds, disjoint intervals of the
	// wall time: their sum is ≤ WallNS (cmd/tracecheck validates
	// this). kvserver's stages share their boundary stamps, so there
	// the sum is exactly WallNS.
	Stage [NumStages]int64
	// Publishes/Helps/Aborts are the serving thread's kcas counter
	// deltas over the execute stage: descriptors announced, peers'
	// operations helped, announced attempts aborted. Zero when the
	// metrics registry is off.
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
// and the element type of the SLOW verb's exemplar list. AppendJSON
// writes it; UnmarshalJSON reads it through this struct.
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

// stagesByName lists the stages in their names' byte order, the order
// encoding/json writes a map's keys in.
var stagesByName = func() [NumStages]Stage {
	var order [NumStages]Stage
	for i := range order {
		order[i] = Stage(i)
	}
	sort.Slice(order[:], func(i, j int) bool { return stageNames[order[i]] < stageNames[order[j]] })
	return order
}()

// AppendJSON appends the span's wire form (spanJSON, stages by name) to
// dst, byte for byte what encoding/json writes for it.
func (s *Span) AppendJSON(dst []byte) []byte {
	dst = strconv.AppendUint(append(dst, `{"span":1,"req":`...), s.Req, 10)
	dst = strconv.AppendInt(append(dst, `,"tid":`...), int64(s.TID), 10)
	dst = strconv.AppendInt(append(dst, `,"worker":`...), int64(s.Worker), 10)
	dst = strconv.AppendInt(append(dst, `,"tenant":`...), int64(s.Tenant), 10)
	dst = AppendJSONString(append(dst, `,"op":`...), s.Op)
	dst = AppendJSONString(append(dst, `,"status":`...), s.Status)
	dst = strconv.AppendInt(append(dst, `,"start_ns":`...), s.StartNS, 10)
	dst = strconv.AppendInt(append(dst, `,"wall_ns":`...), s.WallNS, 10)
	sep := byte('{')
	dst = append(dst, `,"stages":`...)
	for _, st := range stagesByName {
		dst = AppendJSONString(append(dst, sep), stageNames[st])
		dst = strconv.AppendInt(append(dst, ':'), s.Stage[st], 10)
		sep = ','
	}
	dst = strconv.AppendUint(append(dst, `},"kcas_publishes":`...), s.Publishes, 10)
	dst = strconv.AppendUint(append(dst, `,"kcas_helps":`...), s.Helps, 10)
	dst = strconv.AppendUint(append(dst, `,"kcas_aborts":`...), s.Aborts, 10)
	return append(dst, '}')
}

// MarshalJSON serializes the span with named stages.
func (s Span) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// UnmarshalJSON parses the named-stage wire form. Unknown stage names
// are an error — the reader is strict the same way ReadTrace is with
// event kinds.
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

// spanWords is a span's payload: Req, TID|Worker, Tenant|Op|Status,
// StartNS, WallNS, the stages, Publishes, Helps, Aborts.
const spanWords = 5 + int(NumStages) + 3

// maxNames bounds a worker's name table (a name past it is recorded as
// ""); the wire protocol's verbs and status tokens are far fewer.
const maxNames = 64

// spanWorker is one worker's span state: its completed spans (oldest
// overwritten) and its K slowest, which Finish replaces in place;
// topWall and min are Finish's own note of which one goes next. Op and
// Status travel as indexes into names, which only the worker appends
// to; nNames publishes its length.
type spanWorker struct {
	done    ring
	top     ring
	topWall []int64
	min     int
	names   [maxNames]string
	nNames  atomic.Uint32
	_       pad.Line
}

// name returns s's index in names, appending it if new. Owner only.
func (w *spanWorker) name(s string) uint64 {
	n := w.nNames.Load()
	for i := uint32(0); i < n; i++ {
		if w.names[i] == s {
			return uint64(i)
		}
	}
	if n == maxNames {
		return 0 // names[0] is ""
	}
	w.names[n] = s
	w.nNames.Store(n + 1)
	return uint64(n)
}

func (w *spanWorker) encode(sp *Span, v *[spanWords]uint64) {
	v[0] = sp.Req
	v[1] = uint64(uint32(sp.TID)) | uint64(uint32(sp.Worker))<<32
	v[2] = uint64(uint32(sp.Tenant)) | w.name(sp.Op)<<32 | w.name(sp.Status)<<48
	v[3], v[4] = uint64(sp.StartNS), uint64(sp.WallNS)
	for st := Stage(0); st < NumStages; st++ {
		v[5+st] = uint64(sp.Stage[st])
	}
	v[5+NumStages], v[6+NumStages], v[7+NumStages] = sp.Publishes, sp.Helps, sp.Aborts
}

// decode inverts encode on a payload a reader validated.
func (w *spanWorker) decode(v []uint64) Span {
	names := w.names[:w.nNames.Load()] // covers every index the payload holds
	sp := Span{
		Req: v[0], TID: int32(v[1]), Worker: int32(v[1] >> 32),
		Tenant: int32(v[2]), Op: names[v[2]>>32&0xffff], Status: names[v[2]>>48],
		StartNS: int64(v[3]), WallNS: int64(v[4]),
		Publishes: v[5+NumStages], Helps: v[6+NumStages], Aborts: v[7+NumStages],
	}
	for st := Stage(0); st < NumStages; st++ {
		sp.Stage[st] = int64(v[5+st])
	}
	return sp
}

// admit reports whether a span of wall ns joins the worker's K slowest,
// and in which slot: one compare against the K-th slowest, and a rescan
// for the new K-th only on a replacement. Owner only.
func (w *spanWorker) admit(wall int64) (uint64, bool) {
	slot := len(w.topWall)
	if slot < cap(w.topWall) {
		w.topWall = append(w.topWall, wall)
	} else if slot = w.min; wall > w.topWall[slot] {
		w.topWall[slot] = wall
	} else {
		return 0, false
	}
	w.min = 0
	for i := 1; i < len(w.topWall); i++ {
		if w.topWall[i] < w.topWall[w.min] {
			w.min = i
		}
	}
	return uint64(slot), true
}

const (
	// DefaultSpanBuf is the per-worker completed-span ring capacity
	// obs.New gives the span recorder when Config.Trace is on.
	DefaultSpanBuf = 1024
	// TopK is K, the tail exemplars obs.New gives the span recorder:
	// the K slowest spans since it was built.
	TopK = 32
)

// Spans is the request-span recorder: per-worker overwrite-oldest rings
// of completed spans, each worker keeping its K slowest spans as tail
// exemplars with their full stage breakdown. A nil *Spans is the
// disabled state — every method is a nil check and the request path
// stays allocation-free.
//
// A worker writes only its own rings, and readers (drain, SLOW) wait on
// no worker, leaving out a span being written. The K slowest spans are
// among the union of every worker's K slowest, so Exemplars returns
// exactly the K slowest since the recorder was built whenever no worker
// is writing.
type Spans struct {
	workers []spanWorker
	reqSeq  atomic.Uint64
	topK    int
}

// NewSpans builds a span recorder with one ring of perWorker completed
// spans (rounded up to a power of two; no ring for 0) per worker and
// topK > 0 tail exemplars.
func NewSpans(workers, perWorker, topK int) *Spans {
	s := &Spans{workers: make([]spanWorker, workers), topK: topK}
	for i := range s.workers {
		w := &s.workers[i]
		if perWorker > 0 {
			w.done = newRing(perWorker, spanWords)
		}
		w.top = newRing(topK, spanWords)
		w.topWall = make([]int64, 0, topK) // at capacity: Finish never allocates
		w.nNames.Store(1)                  // names[0] is ""
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

// Finish records a completed span into worker's ring, if the recorder
// keeps one, and offers it to the worker's exemplars. Only the worker
// may call it. Allocation-free and wait-free; a nil receiver is a no-op.
func (s *Spans) Finish(worker int, sp Span) {
	if s == nil {
		return
	}
	w := &s.workers[worker]
	var v [spanWords]uint64
	w.encode(&sp, &v)
	if w.done.words != nil {
		w.done.push(v[:]...)
	}
	if slot, ok := w.admit(sp.WallNS); ok {
		w.top.put(slot, v[:]...)
	}
}

// Exemplars returns the K slowest spans recorded so far, slowest first.
// It holds at most K spans while it reads the workers' exemplars, so a
// call allocates K spans whatever the number of workers.
func (s *Spans) Exemplars() []Span {
	if s == nil {
		return nil
	}
	out := make([]Span, 0, s.topK)
	fastest := 0 // index of out's fastest span
	var v [spanWords]uint64
	for i := range s.workers {
		w := &s.workers[i]
		for slot := uint64(0); slot < w.top.size(); slot++ {
			if w.top.get(slot, v[:]) == 0 {
				continue
			}
			if sp := w.decode(v[:]); len(out) < s.topK {
				out = append(out, sp)
			} else if sp.WallNS > out[fastest].WallNS {
				out[fastest] = sp
			} else {
				continue
			}
			for j := range out {
				if out[j].WallNS < out[fastest].WallNS {
					fastest = j
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WallNS > out[j].WallNS })
	return out
}

// Completed returns every span still in the per-worker rings, sorted by
// start time. The rings are not reset: the trace dump reads once.
func (s *Spans) Completed() []Span {
	if s == nil {
		return nil
	}
	var out []Span
	for i := range s.workers {
		if w := &s.workers[i]; w.done.words != nil {
			w.done.read(0, w.done.n.Load(), func(v []uint64) { out = append(out, w.decode(v)) })
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// Dropped reports how many completed spans were overwritten (exported as
// spans_dropped_total when metrics are also on).
func (s *Spans) Dropped() uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for i := range s.workers {
		total += s.workers[i].done.dropped()
	}
	return total
}

// WriteSpansJSONL serializes spans one JSON object per line, framed like
// WriteJSONL's events; the top-level "span" key tells them apart.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w) // its first write error sticks until Flush
	var line []byte
	for i := range spans {
		line = append(spans[i].AppendJSON(line[:0]), '\n')
		bw.Write(line)
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
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		err := json.Unmarshal(raw, &je)
		if err == nil && je.Span != 0 {
			var sp Span
			if err = sp.UnmarshalJSON(raw); err == nil {
				spans = append(spans, sp)
			}
		} else if err == nil {
			k, ok := KindFromString(je.Ev)
			if !ok {
				err = fmt.Errorf("unknown event kind %q", je.Ev)
			}
			events = append(events, Event{TS: je.TSNS, Kind: k, TID: je.TID, Peer: je.Peer, Ref: je.Ref, Req: je.Req})
		}
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return events, spans, nil
}

// WriteChromeTraceWith serializes events and spans in Chrome
// trace_event format, for chrome://tracing or ui.perfetto.dev: events as
// instant events on their thread's row, each span as one "complete"
// (ph:"X") slice per nonzero stage on its serving thread's row, with
// the request id in args to find the events it stamped.
func WriteChromeTraceWith(w io.Writer, events []Event, spans []Span) error {
	bw := bufio.NewWriter(w) // its first write error sticks until Flush
	sep := `{"traceEvents":[`
	for _, e := range events {
		fmt.Fprintf(bw, `%s{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d.%03d,"args":{"peer":%d,"ref":%d,"req":%d}}`,
			sep, e.Kind.String(), e.TID, e.TS/1000, e.TS%1000, e.Peer, e.Ref, e.Req)
		sep = ","
	}
	for _, sp := range spans {
		off := sp.StartNS
		for st := Stage(0); st < NumStages; st++ {
			if d := sp.Stage[st]; d > 0 {
				fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%d.%03d,"dur":%d.%03d,"args":{"req":%d,"op":%q,"status":%q}}`,
					sep, st.String(), sp.TID, off/1000, off%1000, d/1000, d%1000, sp.Req, sp.Op, sp.Status)
				sep = ","
				off += d
			}
		}
	}
	if sep != "," {
		bw.WriteString(sep)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
