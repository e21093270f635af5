// Package obs is the repository's unified telemetry layer: one striped,
// allocation-free metrics registry and one per-thread ring-buffer tracer
// for the descriptor protocol's lifecycle events.
//
// The paper's core claims — helping makes composed moves lock-free, and
// contention management keeps the fast path fast — are only checkable if
// who-helped-whom, abort rates and retry amplification are visible at
// runtime. Before this package those signals were scattered over
// per-container stat methods (tstack.Retries, hashmap.ContentionStats),
// the kcas pool counters, fault.Plan counters and the kvserver
// degradation atomics. obs absorbs them behind one Snapshot:
//
//   - Hot protocol events (publish, help, commit, abort, recycle) are
//     *pushed*: each registered thread owns a cache-line-padded stripe of
//     fixed counters, incremented without allocation or sharing, merged
//     only at snapshot time.
//
//   - Everything that already has a cheap monotone counter somewhere
//     (container CAS retries, map grows, pool stray cleanups, fault
//     firings, server degradation counts) is *pulled*: the owning layer
//     registers a named func at construction and Snapshot sums every
//     func registered under the same name. Because the funcs read the
//     same atomics the legacy stat methods report, the registry cannot
//     drift from them.
//
// The tracer records the same protocol windows internal/fault
// instruments, with helper/victim thread attribution on help events, to
// fixed-size per-thread rings. Disabled (the default), every hook is a
// nil check; enabled, Record is mutex-per-ring but allocation-free.
// Drained events serialize to JSONL (one event per line) and to Chrome
// trace_event JSON for timeline viewing — see docs/observability.md.
package obs

import "time"

// Config selects which telemetry surfaces a runtime carries. The zero
// value disables everything: hook sites then cost one nil check each and
// the Move/MoveN hot paths are unchanged (see BenchmarkObsDisabled).
type Config struct {
	// Metrics enables the striped counter registry.
	Metrics bool
	// Trace enables the descriptor-protocol tracer.
	Trace bool
	// TraceBuf is the per-thread ring capacity in events, rounded up to
	// a power of two; oldest events are overwritten on overflow (the
	// drop count is exported as trace_dropped_total). 0 selects 4096.
	TraceBuf int
	// Spans enables the request-scoped span recorder: per-worker rings
	// of completed spans plus the top-K tail-exemplar buffer (the
	// serving layer records into it and serves the SLOW verb from it).
	Spans bool
	// SpanBuf is the per-worker completed-span ring capacity, rounded
	// up to a power of two; 0 selects DefaultSpanBuf (1024).
	SpanBuf int
	// SpanTopK sizes the tail-exemplar buffer (the K slowest requests
	// past the threshold gate are retained); 0 selects DefaultSpanTopK
	// (32).
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
		o.tracer = newTracerAt(now, maxThreads, cfg.TraceBuf)
	}
	if cfg.Spans {
		o.spans = newSpansAt(now, maxThreads, cfg.SpanBuf, cfg.SpanTopK)
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
