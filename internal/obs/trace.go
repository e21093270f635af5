package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/pad"
)

// EventKind names one descriptor-protocol lifecycle event. The set
// mirrors the windows internal/fault instruments, plus the composed
// layers' own window (map grow), so a trace lines up
// one-to-one with where chaos rules can fire.
type EventKind uint8

// The event taxonomy (see docs/observability.md).
const (
	// EvPublish: the initiating thread announced a descriptor (pair
	// line D10, or general Execute entry). Ref is the descriptor
	// reference.
	EvPublish EventKind = iota
	// EvHelp: a peer thread entered the helping protocol for another
	// thread's announced descriptor. TID is the helper, Peer the
	// victim (the initiating thread whose operation is being helped).
	EvHelp
	// EvCommit: the initiating thread's operation decided SUCCESS.
	EvCommit
	// EvAbort: the initiating thread's announced operation decided
	// failure (pair SECONDFAILED or a general entry mismatch).
	EvAbort
	// EvRecycle: a descriptor slot was handed back for reuse.
	EvRecycle
	// EvMapGrow: a map shard published a doubled directory.
	EvMapGrow

	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvPublish: "publish",
	EvHelp:    "help",
	EvCommit:  "commit",
	EvAbort:   "abort",
	EvRecycle: "recycle",
	EvMapGrow: "map-grow",
}

// String returns the kind's wire name (used in JSONL and Chrome traces).
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString resolves a wire name back to its EventKind.
func KindFromString(s string) (EventKind, bool) {
	for k, n := range eventNames {
		if n == s {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event is one recorded protocol event.
type Event struct {
	// TS is nanoseconds since the tracer was created.
	TS int64
	// Kind is the event taxonomy entry.
	Kind EventKind
	// TID is the recording thread.
	TID int32
	// Peer is the victim thread on EvHelp (the initiator being
	// helped); -1 when not applicable.
	Peer int32
	// Ref is the descriptor reference involved, 0 when not applicable.
	Ref uint64
	// Req is the request id current on the recording thread when the
	// event was recorded (SetRequest), 0 when none: the join key
	// between a request span and the protocol events its execution
	// produced — a slow span's publish/help/commit chain is the trace
	// filtered to its Req.
	Req uint64
}

// ring is one thread's event buffer. The mutex makes Record/Drain safe
// under the race detector; it is per-thread and therefore uncontended
// except against a drain, so the enabled-path cost stays a few tens of
// nanoseconds and zero allocations.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	n     uint64 // events ever recorded into this ring
	drops uint64 // events overwritten before a drain observed them
	req   uint64 // current request id (SetRequest), stamped into events
	_     pad.Line
}

// Tracer records protocol events into fixed per-thread rings. A nil
// *Tracer is the disabled state: Record is a nil check and nothing else.
type Tracer struct {
	start time.Time
	rings []ring
}

// DefaultTraceBuf is the per-thread ring capacity when Config.TraceBuf
// is zero.
const DefaultTraceBuf = 4096

// NewTracer builds a tracer with one ring of perThread events (rounded
// up to a power of two; <=0 selects DefaultTraceBuf) for each of
// maxThreads threads.
func NewTracer(maxThreads, perThread int) *Tracer {
	return newTracerAt(time.Now(), maxThreads, perThread)
}

// newTracerAt pins the tracer's epoch; obs.New shares one epoch between
// the tracer and the span recorder so both timelines align.
func newTracerAt(epoch time.Time, maxThreads, perThread int) *Tracer {
	if maxThreads <= 0 {
		maxThreads = 1
	}
	if perThread <= 0 {
		perThread = DefaultTraceBuf
	}
	perThread = pad.CeilPow2(perThread)
	t := &Tracer{start: epoch, rings: make([]ring, maxThreads)}
	for i := range t.rings {
		t.rings[i].buf = make([]Event, perThread)
	}
	return t
}

// Record appends one event to thread tid's ring, overwriting the oldest
// on overflow, stamped with the thread's current request id (see
// SetRequest). Allocation-free; a nil receiver is a no-op.
func (t *Tracer) Record(tid int, k EventKind, peer int32, ref uint64) {
	if t == nil {
		return
	}
	ts := time.Since(t.start).Nanoseconds()
	r := &t.rings[tid]
	r.mu.Lock()
	r.buf[int(r.n)&(len(r.buf)-1)] = Event{TS: ts, Kind: k, TID: int32(tid), Peer: peer, Ref: ref, Req: r.req}
	r.n++
	r.mu.Unlock()
}

// SetRequest installs req as thread tid's current request id: every
// event the thread records until the next SetRequest carries it (the
// request-scoped span layer sets it at request start and clears it —
// req 0 — after the response is flushed). Allocation-free; a nil
// receiver is a no-op.
func (t *Tracer) SetRequest(tid int, req uint64) {
	if t == nil {
		return
	}
	r := &t.rings[tid]
	r.mu.Lock()
	r.req = req
	r.mu.Unlock()
}

// Drain removes and returns every buffered event, merged across threads
// and sorted by timestamp. Events recorded after the drain started may
// land in the next drain.
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		kept := r.n
		if kept > uint64(len(r.buf)) {
			r.drops += kept - uint64(len(r.buf))
			kept = uint64(len(r.buf))
		}
		for j := uint64(0); j < kept; j++ {
			out = append(out, r.buf[(r.n-kept+j)&uint64(len(r.buf)-1)])
		}
		r.n = 0
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Dropped reports how many events were overwritten before any drain saw
// them (exported as trace_dropped_total when metrics are also on).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		total += r.drops
		if r.n > uint64(len(r.buf)) {
			total += r.n - uint64(len(r.buf))
		}
		r.mu.Unlock()
	}
	return total
}

// jsonEvent is the JSONL wire form of an Event. The Span field is a
// record discriminator: event lines never set it, span lines
// (WriteSpansJSONL) always do.
type jsonEvent struct {
	TSNS int64  `json:"ts_ns"`
	Ev   string `json:"ev"`
	TID  int32  `json:"tid"`
	Peer int32  `json:"peer"`
	Ref  uint64 `json:"ref"`
	Req  uint64 `json:"req"`
	Span int    `json:"span"`
}

// WriteJSONL serializes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, `{"ts_ns":%d,"ev":%q,"tid":%d,"peer":%d,"ref":%d,"req":%d}`+"\n",
			e.TS, e.Kind.String(), e.TID, e.Peer, e.Ref, e.Req); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseEventLine parses one JSONL event line strictly.
func parseEventLine(raw []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return Event{}, err
	}
	k, ok := KindFromString(je.Ev)
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", je.Ev)
	}
	return Event{TS: je.TSNS, Kind: k, TID: je.TID, Peer: je.Peer, Ref: je.Ref, Req: je.Req}, nil
}

// ReadJSONL parses a JSONL trace back into its events, validating each
// event line; span records in a mixed trace file are skipped (use
// ReadTrace to get both). cmd/tracecheck and the CI smoke job use it.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
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
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if probe.Span != 0 {
			continue
		}
		ev, err := parseEventLine(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteChromeTrace serializes events in Chrome trace_event format
// (instant events, thread id = registered thread id): load the file in
// chrome://tracing or ui.perfetto.dev for a timeline view.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"traceEvents":[`); err != nil {
		return err
	}
	for i, e := range events {
		sep := ","
		if i == 0 {
			sep = ""
		}
		// ts is microseconds (Chrome's unit), kept fractional so
		// nanosecond-close events keep their order.
		if _, err := fmt.Fprintf(bw,
			`%s{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d.%03d,"args":{"peer":%d,"ref":%d,"req":%d}}`,
			sep, e.Kind.String(), e.TID, e.TS/1000, e.TS%1000, e.Peer, e.Ref, e.Req); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
