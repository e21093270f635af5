package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pad"
)

// Counter names one of the fixed hot-path counters every registered
// thread stripes. These are the events the thread that caused them
// pushes directly — the descriptor-protocol lifecycle and lost
// linearization CASes; everything else reaches the registry through
// AddFunc pulls.
type Counter uint8

// The fixed counters. Publish/commit/abort are counted by the
// initiating thread (so, quiesced and kill-free, publishes ==
// commits + aborts on both the pair and the general path); helps by the
// helping thread; recycles by the owning thread at every descriptor
// recycle entry point. Stray cleanups (a decided descriptor's leftover
// reference reverted) and late ptr2 installs (a pair helper's marked
// install undone after losing the status race) are the §7 false-helping
// costs, counted by the thread whose CAS did the work; they have no
// trace event. Helped retires count the descriptors whose owner's close
// failed because a helper had entered them: only these are scrubbed and
// wait for a hazard scan, so the series reads ≈ 0 on unhelped traffic.
// CAS retries count the linearization CASes a container operation lost
// (its scas returned false, so it retries) and the failed raw k-word
// CASes, by the losing thread, for every container alike.
const (
	KCASPublish Counter = iota
	KCASHelp
	KCASCommit
	KCASAbort
	KCASRecycle
	KCASStrayCleanup
	KCASLateP2
	KCASHelpedRetire
	CASRetry
	// NumCounters bounds the fixed counter set.
	NumCounters
)

// counterNames is the exported naming scheme: Prometheus-style
// snake_case with a _total suffix for monotone counts. kvserver STATS
// and the METRICS verb both use exactly these names — one scheme,
// documented in docs/observability.md.
var counterNames = [NumCounters]string{
	KCASPublish:      "kcas_publish_total",
	KCASHelp:         "kcas_helps_total",
	KCASCommit:       "kcas_commits_total",
	KCASAbort:        "kcas_aborts_total",
	KCASRecycle:      "kcas_recycles_total",
	KCASStrayCleanup: "kcas_stray_cleanups_total",
	KCASLateP2:       "kcas_late_p2_total",
	KCASHelpedRetire: "kcas_helped_retires_total",
	CASRetry:         "cas_retries_total",
}

// Name returns the counter's exported series name.
func (c Counter) Name() string { return counterNames[c] }

// stripe is one thread's fixed counters, padded so adjacent threads'
// stripes never share a cache line.
type stripe struct {
	c [NumCounters]atomic.Uint64
	_ [(pad.CacheLineSize - (int(NumCounters)*8)%pad.CacheLineSize) % pad.CacheLineSize]byte
}

// series is one registered pull source. Multiple funcs may share a name;
// Snapshot sums them (e.g. every map registers under map_grows_total).
// gauge marks point-in-time series (AddGauge) as
// opposed to monotone counters.
type series struct {
	name  string
	fn    func() uint64
	gauge bool
}

// info is one registered static info series (AddInfo): rendered as
// `name{labels} 1` in Prometheus output, the build_info convention.
type info struct {
	name   string
	labels string
}

// Registry is the striped metrics registry. Inc on distinct threads
// never contends; AddFunc and Snapshot take a mutex and are expected off
// the hot path (construction and reporting time).
type Registry struct {
	stripes []stripe

	mu    sync.Mutex
	funcs []series
	infos []info
}

// NewRegistry builds a registry sized for maxThreads registered threads.
func NewRegistry(maxThreads int) *Registry {
	if maxThreads <= 0 {
		maxThreads = 1
	}
	return &Registry{stripes: make([]stripe, maxThreads)}
}

// Inc adds 1 to thread tid's stripe of counter c. Allocation-free; a
// nil receiver is a no-op so disabled call sites need no guard.
func (r *Registry) Inc(tid int, c Counter) {
	if r == nil {
		return
	}
	r.stripes[tid].c[c].Add(1)
}

// Value sums counter c across all stripes.
func (r *Registry) Value(c Counter) uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for i := range r.stripes {
		total += r.stripes[i].c[c].Load()
	}
	return total
}

// ThreadValue reads counter c's value on thread tid's stripe alone. The
// request-span layer uses before/after deltas of the serving thread's
// stripe to attribute kcas publishes, helps and aborts to one request
// without touching any other thread's cache line. Allocation-free; a
// nil receiver returns 0.
func (r *Registry) ThreadValue(tid int, c Counter) uint64 {
	if r == nil {
		return 0
	}
	return r.stripes[tid].c[c].Load()
}

// AddFunc registers a lazily-evaluated named series: fn is called at
// every Snapshot and its value summed with any other funcs registered
// under the same name. fn must be safe to call from any goroutine and
// should read monotone counters (the name should end in _total). A nil
// receiver is a no-op, so layers register unconditionally.
func (r *Registry) AddFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs = append(r.funcs, series{name: name, fn: fn})
	r.mu.Unlock()
}

// AddGauge registers a point-in-time series: like AddFunc, but the
// value may go up or down (uptime, current percentiles) and Prometheus
// output declares it a gauge instead of a counter. A nil receiver is a
// no-op.
func (r *Registry) AddGauge(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs = append(r.funcs, series{name: name, fn: fn, gauge: true})
	r.mu.Unlock()
}

// AddInfo registers a static info series rendered as `name{labels} 1`
// (the Prometheus build_info convention): labels is the pre-rendered
// label body, e.g. `go_version="go1.24",gomaxprocs="8"`. Registering a
// name again replaces its labels. A nil receiver is a no-op.
func (r *Registry) AddInfo(name, labels string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.infos {
		if r.infos[i].name == name {
			r.infos[i].labels = labels
			return
		}
	}
	r.infos = append(r.infos, info{name: name, labels: labels})
}

// Snapshot merges every stripe and evaluates every registered func into
// one point-in-time view. All known names are present even at zero —
// "absent" must not alias "zero" on any surface that reports this.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: make(map[string]uint64)}
	}
	r.mu.Lock()
	funcs := r.funcs[:len(r.funcs):len(r.funcs)]
	infos := r.infos[:len(r.infos):len(r.infos)]
	gauges := 0
	for _, f := range funcs {
		if f.gauge {
			gauges++
		}
	}
	r.mu.Unlock()
	// Sized once: a map grown through its doublings allocates every
	// smaller table on the way.
	s := Snapshot{Counters: make(map[string]uint64, int(NumCounters)+len(funcs))}
	if gauges > 0 {
		s.Gauges = make(map[string]bool, gauges)
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[counterNames[c]] = r.Value(c)
	}
	for _, f := range funcs {
		s.Counters[f.name] += f.fn()
		if f.gauge {
			s.Gauges[f.name] = true
		}
	}
	if len(infos) > 0 {
		s.Infos = make(map[string]string, len(infos))
		for _, in := range infos {
			s.Infos[in.name] = in.labels
		}
	}
	return s
}

// Snapshot is one merged view of every series a registry knows. It is a
// plain value: safe to retain, diff, or serialize after the runtime is
// gone.
type Snapshot struct {
	// Counters maps series name to its summed value (gauge series
	// included — Gauges marks which names are gauges).
	Counters map[string]uint64
	// Gauges marks the names registered via AddGauge (nil when none):
	// WritePrometheus declares them `gauge` instead of `counter`, and
	// Sub carries their current values instead of differencing them.
	Gauges map[string]bool
	// Infos maps info-series name (AddInfo) to its rendered label body;
	// WritePrometheus emits each as `name{labels} 1`.
	Infos map[string]string
}

// Get returns the named series' value (0 when absent).
func (s Snapshot) Get(name string) uint64 { return s.Counters[name] }

// Names returns every series name in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge adds every series of o into s (for aggregating snapshots
// across several short-lived runtimes). Gauge and info marks union;
// summed gauges across runtimes are the caller's interpretation burden.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	for n, v := range o.Counters {
		s.Counters[n] += v
	}
	for n := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]bool)
		}
		s.Gauges[n] = true
	}
	for n, l := range o.Infos {
		if s.Infos == nil {
			s.Infos = make(map[string]string)
		}
		s.Infos[n] = l
	}
}

// Sub returns s minus prev per counter series (clamped at zero), for
// windowed rates over two snapshots of the same registry. Gauge series
// are point-in-time values, not monotone counts, so their current (s)
// values carry through undifferenced; infos carry from s verbatim.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{Counters: make(map[string]uint64, len(s.Counters)), Gauges: s.Gauges, Infos: s.Infos}
	for n, v := range s.Counters {
		if s.Gauges[n] {
			d.Counters[n] = v
			continue
		}
		if p := prev.Counters[n]; v > p {
			d.Counters[n] = v - p
		} else {
			d.Counters[n] = 0
		}
	}
	return d
}

// WritePrometheus serializes the snapshot in Prometheus text exposition
// format, sorted by name — counters and gauges with their TYPE lines,
// then info series as `name{labels} 1` — terminated by a "# EOF" line
// (the OpenMetrics end marker; the kvwire METRICS verb relies on it to
// frame the response on a line-oriented connection).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range s.Names() {
		typ := "counter"
		if s.Gauges[name] {
			typ = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, s.Counters[name]); err != nil {
			return err
		}
	}
	infoNames := make([]string, 0, len(s.Infos))
	for n := range s.Infos {
		infoNames = append(infoNames, n)
	}
	sort.Strings(infoNames)
	for _, n := range infoNames {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s{%s} 1\n", n, n, s.Infos[n]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
