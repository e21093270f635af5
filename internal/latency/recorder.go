package latency

import (
	"sync/atomic"
	"time"
)

// Recorder stripes histograms three ways: per worker (so hot-path
// recording touches memory owned by exactly one goroutine), per
// tenant, and per operation kind. Histograms are allocated lazily on
// first record — a (worker, tenant, op) cell that never records costs
// one nil pointer — and merged across workers at report time, the same
// publish-locally/merge-at-report shape the containers' contention
// counters use.
//
// Record must be called with the caller's own worker index; workers
// never write each other's cells, so the only cross-thread traffic is
// report-time reads of the atomic bucket counters.
type Recorder struct {
	workers int
	tenants int
	ops     int
	cells   []atomic.Pointer[Hist] // [worker][tenant][op], row-major
}

// NewRecorder sizes a recorder for the given worker, tenant and
// operation-kind counts (all must be at least 1).
func NewRecorder(workers, tenants, ops int) *Recorder {
	if workers < 1 || tenants < 1 || ops < 1 {
		panic("latency: NewRecorder dimensions must be >= 1")
	}
	return &Recorder{
		workers: workers,
		tenants: tenants,
		ops:     ops,
		cells:   make([]atomic.Pointer[Hist], workers*tenants*ops),
	}
}

// Tenants returns the tenant dimension the recorder was sized for.
func (r *Recorder) Tenants() int { return r.tenants }

// Ops returns the operation-kind dimension the recorder was sized for.
func (r *Recorder) Ops() int { return r.ops }

func (r *Recorder) cell(worker, tenant, op int) *atomic.Pointer[Hist] {
	return &r.cells[(worker*r.tenants+tenant)*r.ops+op]
}

// Record adds one sample to the (worker, tenant, op) histogram,
// allocating it on first use. worker must identify the calling
// goroutine uniquely; tenant and op are report dimensions.
func (r *Recorder) Record(worker, tenant, op int, d time.Duration) {
	c := r.cell(worker, tenant, op)
	h := c.Load()
	if h == nil {
		// Only this worker writes this cell, so the store cannot race
		// another allocation; concurrent readers see nil or the
		// published histogram.
		h = NewHist()
		c.Store(h)
	}
	h.Record(d)
}

// MergeInto folds the (tenant, op) pair's histograms across all workers
// into s, straight from their counters (Snapshot.Add): a caller that
// resets and reuses one s per report allocates nothing per histogram.
func (r *Recorder) MergeInto(s *Snapshot, tenant, op int) {
	for w := 0; w < r.workers; w++ {
		if h := r.cell(w, tenant, op).Load(); h != nil {
			s.Add(h)
		}
	}
}

// Merged returns the merged snapshot of one (tenant, op) pair across
// all workers.
func (r *Recorder) Merged(tenant, op int) Snapshot {
	var s Snapshot
	r.MergeInto(&s, tenant, op)
	return s
}

// MergedTenant returns the merged snapshot of every operation kind for
// one tenant.
func (r *Recorder) MergedTenant(tenant int) Snapshot {
	var s Snapshot
	for op := 0; op < r.ops; op++ {
		r.MergeInto(&s, tenant, op)
	}
	return s
}

// MergedAll returns the merged snapshot of everything the recorder
// holds.
func (r *Recorder) MergedAll() Snapshot {
	var s Snapshot
	for tn := 0; tn < r.tenants; tn++ {
		for op := 0; op < r.ops; op++ {
			r.MergeInto(&s, tn, op)
		}
	}
	return s
}
