// Package repro is a Go reproduction of "Supporting Lock-Free
// Composition of Concurrent Data Objects" (Cederman & Tsigas, PPoPP
// 2010): a methodology that composes the insert and remove operations of
// lock-free objects into atomic move operations by unifying their
// linearization points with a software DCAS.
//
// # Quick start
//
//	rt := repro.NewRuntime(repro.Config{MaxThreads: 8})
//	th := rt.RegisterThread()          // one per goroutine
//	q := repro.NewQueue(th)            // Michael–Scott queue, move-ready
//	s := repro.NewStack(th)            // Treiber stack, move-ready
//	q.Enqueue(th, 42)
//	v, ok := repro.Move(th, q, s, 0, 0) // atomic: in q XOR in s, never neither
//
// Containers: NewQueue (Michael–Scott FIFO), NewStack / NewVersionedStack
// (Treiber LIFO, optionally with the §7 ABA counter), NewList (ordered
// set), NewHashMap / NewShardedHashMap (sharded resizable map). All of
// them compose with Move and MoveN; keys select elements in keyed
// containers and are ignored by queues/stacks.
//
// The hash map is sharded and resizable: a shard whose mean bucket load
// passes a threshold doubles its bucket directory, and no entry moves —
// every bucket list is kept in split order, so a new bucket is a sentinel
// node linked into an existing list by whichever thread needs it first.
// No operation ever waits on a grow, and a grow cannot race a Move.
// HashMap.RebalanceStep doubles one over-full shard or links one missing
// sentinel per call and HashMap.Quiesce links them all; neither is needed
// for correctness.
//
// # The k-word CAS engine
//
// One engine (internal/kcas) backs every composition. A descriptor
// holds up to eight (word, old, new) entries; two-entry compositions —
// Move, and a MoveN or TransferKeys of one target or key pair — run the
// paper's helping DCAS protocol (Algorithm 4) directly on the inline
// entries, while wider compositions run a
// Harris/Fraser/Pratt-style CASN whose RDCSS sub-descriptors are
// encoded in the word references themselves, so helping never
// allocates. Both protocols share one per-thread descriptor block, sized
// from MaxThreads so that it cannot run out, with sequence-stamped
// ABA-safe reuse, and one helping dispatch: a
// reader that finds any descriptor kind in a word helps it to
// completion, so pair moves and k-word chains interleave freely on the
// same words.
//
// On top of the engine, beside MoveN, two >2-object compositions:
//
//   - SwapHeads atomically rotates the head values of 2..8 stacks —
//     all top CASes decided by one k-word CAS.
//   - TransferKeys atomically moves up to 4 keyed elements between two
//     hash maps: all removes and inserts linearize together.
//
// Two conveniences are not compositions: DrainN moves up to N elements
// from one object to another, and a MoveBatch buffers moves and runs
// them in order when flushed. Both are plain loops of Move — each move
// stays individually linearizable, a concurrent observer may see any
// prefix applied, and a failed move rolls nothing back. Callers needing
// all-or-nothing multi-object semantics want MoveN or TransferKeys.
//
// Every goroutine that touches these objects must register once with
// RegisterThread and pass its *Thread to every call; the Thread carries
// the hazard-pointer slots, memory caches and the move state the paper
// keeps in thread-local storage.
//
// # Robustness: graceful degradation and fault injection
//
// The substrate's one fixed-capacity resource is the node arena
// (Config.ArenaCapacity). A full arena is a result, not a panic: a node
// is only ever allocated in an operation's init phase, before anything
// is published, so an insert that gets no node returns false, and a
// composition around it aborts by the paper's own path (lines M15–M18)
// with every object unchanged. Thread.Exhausted then reports true once,
// telling a failure for want of nodes from one caused by the data, so a
// caller can back off and retry, shed the request, or configure a larger
// ArenaCapacity.
//
// Config.Fault accepts a FaultInjector — build a FaultPlan with
// NewFaultPlan or ParseFaultPlan — that stalls, parks, or hard-kills
// threads at the descriptor protocol's critical windows (after
// publish, before commit, before recycle, hash-map mid-grow). This is
// how the paper's core claim — peers help published operations to
// completion, so a stalled or dead thread never wedges the system —
// becomes an executable test axis; see docs/robustness.md for the
// failure model and point catalog.
//
// # Finding your way around
//
// ARCHITECTURE.md at the repository root maps the internal packages
// this facade fronts — the layering from the word encoding up through
// the k-word CAS engine, the containers and the measurement stack —
// with the descriptor/helping protocol drawn out and a section-by-
// section mapping to the paper. docs/measurement.md explains the
// benchmarking methodology; cmd/README.md the runnable tools.
package repro

import (
	"io"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harrislist"
	"repro/internal/hashmap"
	"repro/internal/msqueue"
	"repro/internal/obs"
	"repro/internal/tstack"
)

// Config sizes a Runtime. See core.Config for the field documentation.
type Config = core.Config

// Runtime owns the shared substrate (arena, hazard pointers, memory
// manager, descriptor blocks) for one family of composable objects.
type Runtime = core.Runtime

// Thread is the per-goroutine context; obtain one per goroutine from
// Runtime.RegisterThread.
type Thread = core.Thread

// Inserter is the insert half of a move-ready object.
type Inserter = core.Inserter

// Remover is the remove half of a move-ready object.
type Remover = core.Remover

// MoveReady is a fully composable object (Inserter + Remover +
// identity).
type MoveReady = core.MoveReady

// Queue is the move-ready Michael–Scott lock-free FIFO queue.
type Queue = msqueue.Queue

// Stack is the move-ready Treiber lock-free LIFO stack.
type Stack = tstack.Stack

// List is the move-ready lock-free ordered set (Harris list).
type List = harrislist.List

// HashMap is the move-ready, sharded, resizable lock-free hash map
// (shards of split-ordered Harris lists; a grow doubles a directory and
// moves nothing).
type HashMap = hashmap.Map

// NewRuntime builds a runtime; the zero Config selects usable defaults.
func NewRuntime(cfg Config) *Runtime { return core.NewRuntime(cfg) }

// NewQueue creates an empty move-ready queue.
func NewQueue(t *Thread) *Queue { return msqueue.New(t) }

// NewStack creates an empty move-ready stack.
func NewStack(t *Thread) *Stack { return tstack.New(t) }

// NewVersionedStack creates a stack with the §7 ABA counter on its top
// pointer, trading a little plain-operation speed for far less false
// helping in stack-to-stack moves.
func NewVersionedStack(t *Thread) *Stack { return tstack.NewVersioned(t) }

// NewList creates an empty move-ready ordered set.
func NewList(t *Thread) *List { return harrislist.New(t) }

// NewHashMap creates a move-ready hash map with the given total initial
// bucket count (spread over a default shard count) and the default grow
// threshold of 2 entries per bucket.
func NewHashMap(t *Thread, buckets int) *HashMap { return hashmap.New(t, buckets) }

// NewShardedHashMap creates a hash map with an explicit shape: shard
// count, initial buckets per shard (each rounded up to a power of two)
// and the mean entries-per-bucket load that triggers a shard grow (<= 0
// selects the default, 2: a grow moves no entry, so growing early keeps
// every operation's bucket walk short).
func NewShardedHashMap(t *Thread, shards, bucketsPerShard, growLoad int) *HashMap {
	return hashmap.NewSharded(t, shards, bucketsPerShard, growLoad)
}

// Move atomically moves one element from src to dst: the element is
// never observable in both objects nor in neither. skey selects the
// element in keyed sources; tkey is its key in keyed targets; both are
// ignored by queues and stacks. It returns the moved value and whether
// the move happened (false: source empty / no such key / target
// rejected / no node for the insert, which Thread.Exhausted reports;
// both objects unchanged).
func Move(t *Thread, src Remover, dst Inserter, skey, tkey uint64) (uint64, bool) {
	return t.Move(src, dst, skey, tkey)
}

// MoveN atomically removes one element from src and inserts it into
// every dst (the paper's §8 n-object extension); with one target it is
// Move. All objects must be pairwise distinct; at most 7 targets.
func MoveN(t *Thread, src Remover, dsts []Inserter, skey uint64, tkeys []uint64) (uint64, bool) {
	return t.MoveN(src, dsts, skey, tkeys)
}

// SwapHeads atomically rotates the head values of k stacks (2 ≤ k ≤ 8):
// stack i's head value becomes stack i-1's, with all k top CASes
// decided by one k-word CAS — no observer sees a partial rotation. It
// returns false (changing nothing) when any stack is observed empty, or
// when the arena has no nodes for the new heads (Thread.Exhausted).
// The stacks must be pairwise distinct. It allocates nothing.
func SwapHeads(t *Thread, stacks ...*Stack) bool {
	return tstack.SwapHeads(t, stacks...)
}

// TransferKeys atomically moves len(skeys) elements from src to dst:
// element i is removed under skeys[i] and inserted under tkeys[i], all
// 2k linearization CASes decided together (at most 4 key pairs; one
// pair is decided like a Move). On success it returns the moved values,
// in key order.
//
// The result is t's own storage, not a fresh slice: TransferKeys
// allocates nothing, and the values stay valid until t's next
// TransferKeys, which reuses them — t's other operations and other
// threads' transfers leave them alone. Copy them to keep them longer.
//
// It returns ok=false, changing nothing, when any source key is absent,
// any target key is occupied, the arena has no node for an insert
// (Thread.Exhausted), or two target keys would be linked into one gap
// of dst's list — the two inserts would change one word, which one
// composition cannot do; a data-dependent condition callers handle by
// falling back to per-key Moves. Source keys sharing a bucket chain
// transfer: their removes change distinct words. Misuse panics
// instead: 1..4 key pairs, equal slice lengths, keys pairwise distinct
// within each slice and two distinct maps are the caller's to get
// right.
func TransferKeys(t *Thread, src, dst *HashMap, skeys, tkeys []uint64) ([]uint64, bool) {
	return t.TransferN(src, dst, skeys, tkeys)
}

// DrainN moves up to n elements from src to dst, one Move at a time.
// Each move is its own individually-linearizable operation — DrainN is
// a pipeline, not a transaction — and the drain stops at the first
// failed move (source empty, target refusing, or no node for the
// insert). It returns the moved values in a fresh slice; n <= 0 moves
// nothing. skey/tkey are passed to every move, as in Move. To drain
// without allocating, append into a reused buffer through the thread:
// t.DrainN(src, dst, skey, tkey, n, buf[:0]).
func DrainN(t *Thread, src Remover, dst Inserter, skey, tkey uint64, n int) []uint64 {
	return t.DrainN(src, dst, skey, tkey, n, nil)
}

// MoveBatch is a per-thread buffer of moves: Add buffers up to its
// capacity, Flush runs them one Move at a time in Add order. A flush is
// NOT a transaction: every buffered move is its own linearizable
// operation, and a concurrent observer can see any prefix of a flush
// applied.
type MoveBatch = batch.MoveBuffer

// MoveResult is the per-move outcome of a MoveBatch flush.
type MoveResult = batch.MoveResult

// NewMoveBatch creates a move buffer for t with the default capacity.
// Like the Thread it wraps, a MoveBatch belongs to one goroutine.
func NewMoveBatch(t *Thread) *MoveBatch { return batch.New(t, 0) }

// NewMoveBatchSize creates a move buffer holding up to capacity moves
// per flush (<= 0 selects the default).
func NewMoveBatchSize(t *Thread, capacity int) *MoveBatch { return batch.New(t, capacity) }

// FaultPoint names one of the substrate's fault-injection sites; see
// the fault package constants (kcas-publish, kcas-commit, kcas-recycle,
// map-grow) and docs/robustness.md for the catalog.
type FaultPoint = fault.Point

// FaultInjector is the hook interface Config.Fault accepts; Fire runs
// at every injection point a registered thread crosses. Nil disables
// injection at zero cost beyond a nil check per site.
type FaultInjector = fault.Injector

// FaultPlan is the concrete FaultInjector: an ordered rule set built
// with NewFaultPlan (or ParseFaultPlan) binding stall/park/kill actions
// to injection points under deterministic trigger schedules.
type FaultPlan = fault.Plan

// FaultTrigger schedules when a FaultPlan rule fires: fault.Nth,
// fault.Every, fault.Prob (seeded, replayable), with AfterSkip and
// OnThread refinements.
type FaultTrigger = fault.Trigger

// NewFaultPlan returns an empty fault plan; chain Stall/Park/Kill rule
// registrations onto it and set it as Config.Fault.
func NewFaultPlan() *FaultPlan { return fault.NewPlan() }

// ParseFaultPlan builds a fault plan from spec strings of the form
// "<point>:<action>[:<mods>]" — e.g. "kcas-commit:stall=2ms:every=97"
// or "kcas-publish:kill:nth=1500" — the grammar cmd/kvserver's -fault
// flag uses. See fault.Parse.
func ParseFaultPlan(specs []string) (*FaultPlan, error) { return fault.Parse(specs) }

// ObsConfig selects the unified telemetry surfaces (set it as
// Config.Obs): Metrics enables the striped counter registry the
// substrate and containers report into, Trace the descriptor-protocol
// tracer (publish / help / commit / abort / recycle events with
// helper→victim attribution), Spans the request-scoped span recorder
// the serving layer records latency attributions into. The zero value
// disables all three at zero cost beyond a nil check per hook site; see
// docs/observability.md.
type ObsConfig = obs.Config

// Obs bundles a runtime's enabled telemetry surfaces; obtain it from
// Runtime.Obs (nil when ObsConfig enables none of the three — the
// Metrics, Tracer and Spans accessors stay safe to chain on nil).
type Obs = obs.Obs

// ObsRegistry is the striped, allocation-free metrics registry: fixed
// per-thread counters for the hot protocol events plus lazily
// registered named series, merged into an ObsSnapshot on demand.
type ObsRegistry = obs.Registry

// ObsSnapshot is one merged point-in-time view of every metric series a
// registry knows; WritePrometheus serializes it in Prometheus text
// format terminated by "# EOF" (what the kvserver METRICS verb emits).
type ObsSnapshot = obs.Snapshot

// Tracer records descriptor-protocol lifecycle events into fixed
// per-thread ring buffers; Drain returns the time-sorted events.
type Tracer = obs.Tracer

// TraceEvent is one recorded protocol event: timestamp, kind, recording
// thread, peer thread (the helped victim on help events) and descriptor
// reference.
type TraceEvent = obs.Event

// WriteTraceJSONL serializes drained trace events one JSON object per
// line — the format cmd/tracecheck validates and converts.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error { return obs.WriteJSONL(w, events) }

// Span is one completed request's latency attribution: wall time
// decomposed into stages (queue wait, parse, execute, degrade, write)
// plus the kcas protocol work — publishes, helps, aborts — its execute
// stage performed. The Req id cross-references the TraceEvents the
// serving thread recorded while the request was current.
type Span = obs.Span

// Spans is the request-span recorder: per-worker overwrite-oldest rings
// of completed spans, each keeping its worker's K slowest as tail
// exemplars, which Exemplars merges into the K slowest since the
// recorder was built; obtain it from Obs.Spans (nil when ObsConfig.Spans is off — every
// method stays safe on nil).
type Spans = obs.Spans

// WriteSpansJSONL serializes completed spans one JSON object per line;
// span lines carry a top-level "span":1 key, so they interleave with
// WriteTraceJSONL event lines in one mixed trace file.
func WriteSpansJSONL(w io.Writer, spans []Span) error { return obs.WriteSpansJSONL(w, spans) }

// ReadTrace parses a mixed JSONL trace file back into its event and
// span records, strictly — the reader cmd/tracecheck validates with.
func ReadTrace(r io.Reader) ([]TraceEvent, []Span, error) { return obs.ReadTrace(r) }

// WriteChromeTraceWith serializes protocol events plus request spans in
// Chrome trace_event format: events as instants, each span as one
// "complete" slice per nonzero stage on its serving thread's row.
func WriteChromeTraceWith(w io.Writer, events []TraceEvent, spans []Span) error {
	return obs.WriteChromeTraceWith(w, events, spans)
}
