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
	// Spans enables the request-scoped span recorder: each worker's
	// top-K tail exemplars (the serving layer records into it and serves
	// the SLOW verb from it), and, with Trace, per-worker rings of
	// DefaultSpanBuf completed spans for the trace dump.
	Spans bool
	// SpanTopK is K, the number of tail exemplars retained: the K
	// slowest spans since the recorder was built; 0 selects
	// DefaultSpanTopK (32).
	SpanTopK int
}

// Enabled reports whether any surface is on.
func (c Config) Enabled() bool { return c.Metrics || c.Trace || c.Spans }

// Obs bundles the enabled surfaces of one runtime. A nil *Obs (the
// disabled state) is valid: every accessor returns nil and the nil
// Registry/Tracer methods are no-ops, so call sites need no guards.
type Obs struct {
	metrics *Registry
	tracer  *Tracer
	spans   *Spans
}

// New builds the telemetry surfaces cfg selects, sized for maxThreads
// registered threads. It returns nil when cfg disables everything. The
// tracer and span recorder share one epoch, so span StartNS and event
// TS values live on the same timeline.
func New(cfg Config, maxThreads int) *Obs {
	if !cfg.Enabled() {
		return nil
	}
	o := &Obs{}
	now := time.Now()
	if cfg.Metrics {
		o.metrics = NewRegistry(maxThreads)
	}
	if cfg.Trace {
		o.tracer = NewTracer(maxThreads, DefaultTraceBuf)
		o.tracer.start = now
	}
	if cfg.Spans {
		buf := 0 // only a trace dump reads completed spans
		if cfg.Trace {
			buf = DefaultSpanBuf
		}
		o.spans = NewSpans(maxThreads, buf, cfg.SpanTopK)
		o.spans.epoch = now
	}
	return o
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
