// Package obs is the repository's unified telemetry layer: one striped,
// allocation-free metrics registry and one per-thread ring-buffer tracer
// for the descriptor protocol's lifecycle events.
//
// The paper's core claim — helping makes composed moves lock-free — is
// only checkable if who-helped-whom, abort rates and retry amplification
// are visible at runtime. obs puts those signals behind one Snapshot:
//
//   - Events an operation causes (publish, help, commit, abort, recycle,
//     stray cleanups, helped retires, lost linearization CASes) are
//     *pushed* by the thread that caused them: each registered thread
//     owns a cache-line-padded stripe of fixed counters, incremented
//     without allocation or sharing, merged only at snapshot time. A
//     container keeps no counter of its own on an operation's path.
//
//   - Counts that already live in some layer's own state (map grows,
//     fault firings, server degradation counts) are *pulled*: the
//     owning layer registers a named func at construction and Snapshot
//     sums every func registered under the same name, so the registry
//     reads the very atomics the layer's accessors report.
//
// The tracer records the same protocol windows internal/fault
// instruments, with helper/victim thread attribution on help events, to
// fixed-size per-thread rings. Disabled (the default), every hook is a
// nil check. Enabled, nothing in obs takes a lock on an operation's
// path: trace events, completed spans and tail exemplars all live in
// one ring type that only the owning thread writes and that readers
// copy and validate (ring.go), so Record and Finish are wait-free and
// allocation-free, and a drain never waits on an operation nor an
// operation on a drain. Drained events serialize to JSONL (one event
// per line) and to Chrome trace_event JSON for timeline viewing — see
// docs/observability.md.
package obs

import "time"

// Config selects which telemetry surfaces a runtime carries. The zero
// value disables everything: hook sites then cost one nil check each and
// the Move/MoveN hot paths are unchanged (see BenchmarkObsDisabled).
type Config struct {
	// Metrics enables the striped counter registry.
	Metrics bool
	// Trace enables the descriptor-protocol tracer: DefaultTraceBuf
	// events per thread, oldest overwritten on overflow (the drop count
	// is exported as trace_dropped_total).
	Trace bool
	// Spans enables the request-scoped span recorder: the TopK slowest
	// spans since it was built, as tail exemplars (the serving layer
	// records into it and serves the SLOW verb from it), and, with
	// Trace, per-worker rings of DefaultSpanBuf completed spans for the
	// trace dump.
	Spans bool
}

// Enabled reports whether any surface is on.
func (c Config) Enabled() bool { return c.Metrics || c.Trace || c.Spans }

// Obs bundles the enabled surfaces of one runtime. A nil *Obs (the
// disabled state) is valid: every accessor returns nil and the nil
// Registry/Tracer methods are no-ops, so call sites need no guards.
type Obs struct {
	clock   *Clock
	metrics *Registry
	tracer  *Tracer
	spans   *Spans
}

// Clock is a runtime's one time base: monotonic nanoseconds since the
// epoch obs.New stamps. Tracer events and every stamp a caller puts in
// a Span (StartNS, WallNS, the stages) read it, so spans and protocol
// events live on one timeline.
type Clock struct{ epoch time.Time }

func newClock() *Clock { return &Clock{epoch: time.Now()} }

// Now returns nanoseconds since the epoch: one monotonic clock read
// (the wall clock is never read), wait-free and allocation-free.
func (c *Clock) Now() int64 { return int64(time.Since(c.epoch)) }

// New builds the telemetry surfaces cfg selects, sized for maxThreads
// registered threads. It returns nil when cfg disables everything.
func New(cfg Config, maxThreads int) *Obs {
	if !cfg.Enabled() {
		return nil
	}
	o := &Obs{clock: newClock()}
	if cfg.Metrics {
		o.metrics = NewRegistry(maxThreads)
	}
	if cfg.Trace {
		o.tracer = NewTracer(maxThreads, DefaultTraceBuf)
		o.tracer.clock = o.clock
	}
	if cfg.Spans {
		buf := 0 // only a trace dump reads completed spans
		if cfg.Trace {
			buf = DefaultSpanBuf
		}
		o.spans = NewSpans(maxThreads, buf, TopK)
	}
	return o
}

// Clock returns the runtime's time base, or nil on a nil receiver.
func (o *Obs) Clock() *Clock {
	if o == nil {
		return nil
	}
	return o.clock
}

// Metrics returns the counter registry, or nil when metrics are off
// (including on a nil receiver).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Tracer returns the protocol tracer, or nil when tracing is off
// (including on a nil receiver).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Spans returns the request-span recorder, or nil when spans are off
// (including on a nil receiver).
func (o *Obs) Spans() *Spans {
	if o == nil {
		return nil
	}
	return o.spans
}
