// Package latency provides HDR-style latency histograms built for
// lock-free measurement paths: recording is a couple of atomic adds on
// a histogram owned by one worker, histograms are striped per worker
// (see Recorder) so hot paths never share cache lines or take locks,
// and stripes are merged only at report time. The bucket layout is
// log-linear (a power-of-two exponent range with 2^subBucketBits
// linear sub-buckets per octave), giving a bounded relative error of
// at most 1/2^(subBucketBits-1) — about 3% — across the whole
// trackable range, which is what per-op p50/p99/p999 reporting needs:
// constant memory, no per-sample allocation, and tails that are not
// averaged away.
//
// The package is measurement infrastructure for the service layer
// (cmd/kvserver records per-tenant per-op service times, cmd/kvload
// records open-loop response times from intended send time); it has no
// dependency on the containers.
package latency

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits sets the linear resolution inside each octave:
	// 2^subBucketBits sub-buckets, so the worst-case relative error of
	// a reported quantile is 1/2^(subBucketBits-1) (~3.1%).
	subBucketBits = 6
	subCount      = 1 << subBucketBits
	halfCount     = subCount / 2

	// maxTrackableNS caps recorded values (~73 minutes in nanoseconds);
	// larger samples clamp into the top bucket rather than overflowing.
	maxTrackableNS = int64(1) << 42

	// numBuckets covers values in [0, maxTrackableNS]: one full linear
	// octave block of subCount buckets, then halfCount buckets per
	// additional octave.
	numBuckets = subCount + (43-subBucketBits)*halfCount
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns > maxTrackableNS {
		ns = maxTrackableNS
	}
	v := uint64(ns)
	// exp is 0 for v < subCount; otherwise the number of low bits
	// dropped so that v>>exp lands in [halfCount, subCount).
	exp := bits.Len64(v|(subCount-1)) - subBucketBits
	if exp == 0 {
		return int(v)
	}
	return exp*halfCount + int(v>>uint(exp))
}

// bucketMid returns a representative value (the bucket's midpoint) for
// a bucket index, the value quantile queries report.
func bucketMid(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	exp := i/halfCount - 1
	sub := int64(i - exp*halfCount)
	lo := sub << uint(exp)
	return lo + (int64(1)<<uint(exp))/2
}

// Hist is one latency histogram. Record is safe for concurrent use
// (all state is atomic), but the intended discipline is one writer per
// Hist — the Recorder stripes one per worker — with concurrent readers
// taking Snapshots at report time.
type Hist struct {
	count  atomic.Uint64
	sumNS  atomic.Uint64
	maxNS  atomic.Int64
	counts [numBuckets]atomic.Uint64
}

// NewHist creates an empty histogram.
func NewHist() *Hist { return &Hist{} }

// Record adds one duration sample. Negative durations clamp to zero;
// samples beyond the trackable range clamp into the top bucket.
func (h *Hist) Record(d time.Duration) { h.RecordNS(d.Nanoseconds()) }

// RecordNS adds one sample in nanoseconds.
func (h *Hist) RecordNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(ns))
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Snapshot copies the histogram's current state. It is safe to take
// while writers are recording; the copy is internally consistent
// enough for reporting (bucket totals may trail count by in-flight
// samples).
func (h *Hist) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		SumNS: h.sumNS.Load(),
		MaxNS: h.maxNS.Load(),
	}
	if s.Count == 0 {
		return s
	}
	s.counts = make([]uint64, numBuckets)
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is an immutable merged view of one or more histograms.
type Snapshot struct {
	Count  uint64
	SumNS  uint64
	MaxNS  int64
	counts []uint64
}

// Merge folds other into s.
func (s *Snapshot) Merge(other Snapshot) {
	s.Count += other.Count
	s.SumNS += other.SumNS
	if other.MaxNS > s.MaxNS {
		s.MaxNS = other.MaxNS
	}
	if other.counts == nil {
		return
	}
	if s.counts == nil {
		s.counts = make([]uint64, numBuckets)
	}
	for i, c := range other.counts {
		s.counts[i] += c
	}
}

// Percentile returns the latency (ns) at quantile q in [0,1]: the
// representative value of the bucket where the cumulative count
// crosses q×Count. Zero when the snapshot is empty.
func (s Snapshot) Percentile(q float64) int64 {
	if s.Count == 0 || s.counts == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Bucket totals can trail Count when a snapshot raced writers; rank
	// against the buckets actually seen.
	var total uint64
	for _, c := range s.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(numBuckets - 1)
}

// Sub returns the delta snapshot s minus prev, where prev is an
// earlier snapshot of the same (merged) histograms: the samples
// recorded in the interval between the two. Overload controllers use
// it to compute windowed percentiles — a p99 over the last control
// period, not over the process lifetime, so a recovered overload stops
// biasing the signal. MaxNS is carried from s (maxima are not
// invertible); a prev that is not an ancestor of s (counts exceeding
// s's) clamps to zero rather than wrapping.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Count: s.Count - min(prev.Count, s.Count),
		SumNS: s.SumNS - min(prev.SumNS, s.SumNS),
		MaxNS: s.MaxNS,
	}
	if s.counts == nil {
		return d
	}
	d.counts = make([]uint64, len(s.counts))
	copy(d.counts, s.counts)
	for i := range prev.counts {
		if i >= len(d.counts) {
			break
		}
		d.counts[i] -= min(prev.counts[i], d.counts[i])
	}
	return d
}

// Max returns the exact largest recorded sample in nanoseconds (0 when
// empty). Unlike Percentile(1), which reports a bucket midpoint with
// the layout's ~3.1% relative error, Max is tracked exactly (atomic
// max alongside the buckets) — exemplar thresholds and stall forensics
// need the true worst case, not a bucket approximation. Merge takes
// the larger of the two maxima; Sub carries s's max (maxima are not
// invertible over a window).
func (s Snapshot) Max() int64 { return s.MaxNS }

// MeanNS returns the mean sample in nanoseconds (0 when empty).
func (s Snapshot) MeanNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}
