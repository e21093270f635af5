package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/pad"
)

// EventKind names one descriptor-protocol lifecycle event. The set
// mirrors the windows internal/fault instruments, map grow included, so
// a trace lines up one-to-one with where chaos rules can fire.
type EventKind uint8

// The event taxonomy (see docs/observability.md).
const (
	// EvPublish: the initiating thread announced a descriptor (pair
	// line D10, or general Execute entry); Ref is its reference.
	EvPublish EventKind = iota
	// EvHelp: a peer thread entered the helping protocol for another
	// thread's announced descriptor. TID is the helper, Peer the
	// victim (the initiating thread whose operation is being helped).
	EvHelp
	// EvCommit: the initiating thread's operation decided SUCCESS.
	EvCommit
	// EvAbort: the initiator's announced operation decided failure
	// (pair SECONDFAILED or a general entry mismatch).
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
	// Req is the recording thread's current request id (SetRequest),
	// 0 when none: a slow span's publish/help/commit chain is the trace
	// filtered to its Req.
	Req uint64
}

// eventWords is an event's payload: TS, Kind|Peer, Ref, Req (the
// ring's index is the TID).
const eventWords = 4

// traceRing is one thread's events and current request id; only that
// thread records or sets req.
type traceRing struct {
	ring
	req uint64 // current request id (SetRequest), stamped into events
	_   pad.Line
}

// Tracer records protocol events into fixed per-thread rings. A nil
// *Tracer is the disabled state: Record is a nil check.
type Tracer struct {
	start time.Time
	rings []traceRing
}

// DefaultTraceBuf is the per-thread ring capacity obs.New uses.
const DefaultTraceBuf = 4096

// NewTracer builds a tracer with one ring of perThread events (rounded
// up to a power of two) for each of maxThreads threads.
func NewTracer(maxThreads, perThread int) *Tracer {
	t := &Tracer{start: time.Now(), rings: make([]traceRing, maxThreads)}
	for i := range t.rings {
		t.rings[i].ring = newRing(perThread, eventWords)
	}
	return t
}

// Record appends an event stamped with the current request id to thread
// tid's ring, overwriting the oldest. Only thread tid may call it.
// Allocation-free and wait-free; a nil receiver is a no-op.
func (t *Tracer) Record(tid int, k EventKind, peer int32, ref uint64) {
	if t == nil {
		return
	}
	ts := time.Since(t.start).Nanoseconds()
	r := &t.rings[tid]
	r.push(uint64(ts), uint64(k)|uint64(uint32(peer))<<32, ref, r.req)
}

// SetRequest installs req as thread tid's current request id, carried by
// every event the thread records until the next SetRequest (the span
// layer sets it at request start and clears it, req 0, after the
// flush). Only thread tid may call it; a nil receiver is a no-op.
func (t *Tracer) SetRequest(tid int, req uint64) {
	if t == nil {
		return
	}
	t.rings[tid].req = req
}

// Drain removes and returns every buffered event, merged across threads
// and sorted by timestamp. It waits on no thread: an event overwritten
// while it reads counts as dropped, one recorded after it started may
// land in the next drain, and concurrent drains never return one event
// twice.
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.rings {
		tid := int32(i)
		t.rings[i].drain(func(v []uint64) {
			out = append(out, Event{TS: int64(v[0]), Kind: EventKind(v[1]), TID: tid,
				Peer: int32(v[1] >> 32), Ref: v[2], Req: v[3]})
		})
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
		total += t.rings[i].dropped()
	}
	return total
}

// jsonEvent is an Event's JSONL form. Span discriminates: span lines
// (WriteSpansJSONL) set it, event lines never do.
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
	bw := bufio.NewWriter(w) // its first write error sticks until Flush
	for _, e := range events {
		fmt.Fprintf(bw, `{"ts_ns":%d,"ev":%q,"tid":%d,"peer":%d,"ref":%d,"req":%d}`+"\n",
			e.TS, e.Kind.String(), e.TID, e.Peer, e.Ref, e.Req)
	}
	return bw.Flush()
}
