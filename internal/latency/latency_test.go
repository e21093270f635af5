package latency

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// maxRelErr is the bucket layout's worst-case relative error
// (1/2^(subBucketBits-1)), with a little slack for the reference
// quantile's interpolation.
const maxRelErr = 1.0/(1<<(subBucketBits-1)) + 0.005

func TestBucketRoundTrip(t *testing.T) {
	for _, ns := range []int64{0, 1, 5, subCount - 1, subCount, subCount + 1,
		1000, 12345, 1 << 20, (1 << 20) + 7, 1e9, maxTrackableNS - 1, maxTrackableNS} {
		i := bucketIndex(ns)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", ns, i, numBuckets)
		}
		mid := bucketMid(i)
		err := math.Abs(float64(mid-ns)) / math.Max(float64(ns), 1)
		if err > 1.0/(1<<(subBucketBits-1)) {
			t.Fatalf("bucketMid(bucketIndex(%d)) = %d: relative error %.4f", ns, mid, err)
		}
	}
	// Indices must be monotone in the value.
	prev := -1
	for ns := int64(0); ns < 1<<20; ns += 911 {
		i := bucketIndex(ns)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", ns, i, prev)
		}
		prev = i
	}
}

func TestClamping(t *testing.T) {
	h := NewHist()
	h.RecordNS(-5)
	h.RecordNS(maxTrackableNS * 3)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("p0 = %d, want 0 (negative clamps)", got)
	}
	if got := s.Percentile(1); got < maxTrackableNS/2 {
		t.Fatalf("p100 = %d, want clamped into the top bucket", got)
	}
}

// TestPercentilesMatchExact cross-validates the bucketed quantiles
// against stats.Quantile over the raw samples.
func TestPercentilesMatchExact(t *testing.T) {
	rng := xrand.New(42)
	h := NewHist()
	var raw []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over ~[100ns, 100ms] plus a heavy tail.
		ns := int64(100 * math.Pow(10, 6*float64(rng.Uint64()%1000)/1000))
		if rng.Uint64()%1000 == 0 {
			ns *= 50
		}
		h.RecordNS(ns)
		raw = append(raw, float64(ns))
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(s.Percentile(q))
		want := stats.Quantile(raw, q)
		if err := math.Abs(got-want) / want; err > maxRelErr+0.01 {
			t.Errorf("p%g = %.0f, exact %.0f: relative error %.4f", q*100, got, want, err)
		}
	}
	if mean := s.MeanNS(); math.Abs(mean-stats.Quantile(raw, 0.5)) > mean*100 {
		t.Errorf("mean %.0f implausible", mean) // sanity only; mean is exact by construction
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	for i := 0; i < 1000; i++ {
		a.RecordNS(100)
		b.RecordNS(10_000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 2000 {
		t.Fatalf("merged count = %d, want 2000", s.Count)
	}
	p25, p75 := s.Percentile(0.25), s.Percentile(0.75)
	if p25 > 110 || p75 < 9000 {
		t.Fatalf("merged p25/p75 = %d/%d, want ~100/~10000", p25, p75)
	}
	if s.MaxNS != 10_000 {
		t.Fatalf("merged max = %d, want 10000", s.MaxNS)
	}
}

func TestMergeEmpty(t *testing.T) {
	var s Snapshot
	s.Merge(Snapshot{})
	if s.Percentile(0.5) != 0 || s.MeanNS() != 0 {
		t.Fatal("empty merge must stay empty")
	}
	h := NewHist()
	h.RecordNS(7)
	s.Merge(h.Snapshot())
	if s.Count != 1 || s.Percentile(0.5) != 7 {
		t.Fatalf("merge into empty: count=%d p50=%d", s.Count, s.Percentile(0.5))
	}
}

// TestMax: the exact max is tracked independently of the bucket
// approximation, survives Merge (larger wins) and Sub (carried from
// the newer snapshot), and Max() matches MaxNS.
func TestMax(t *testing.T) {
	h := NewHist()
	if got := h.Snapshot().Max(); got != 0 {
		t.Fatalf("empty max = %d, want 0", got)
	}
	// A value a bucketed p100 would round: 1<<20 + 3 shares a bucket
	// with neighbours, but Max must report it exactly.
	exact := int64(1<<20 + 3)
	h.RecordNS(500)
	h.RecordNS(exact)
	h.RecordNS(1000)
	s := h.Snapshot()
	if s.Max() != exact {
		t.Fatalf("max = %d, want exactly %d", s.Max(), exact)
	}
	if s.Max() != s.MaxNS {
		t.Fatalf("Max() = %d disagrees with MaxNS = %d", s.Max(), s.MaxNS)
	}

	// Merge keeps the larger max from either side.
	lo, hi := NewHist(), NewHist()
	lo.RecordNS(10)
	hi.RecordNS(exact * 2)
	m := lo.Snapshot()
	m.Merge(hi.Snapshot())
	if m.Max() != exact*2 {
		t.Fatalf("merged max = %d, want %d", m.Max(), exact*2)
	}
	m2 := hi.Snapshot()
	m2.Merge(lo.Snapshot())
	if m2.Max() != exact*2 {
		t.Fatalf("merge order must not matter: max = %d, want %d", m2.Max(), exact*2)
	}

	// Sub carries the newer snapshot's max (maxima are not invertible):
	// even when the window added only fast samples, the lifetime max
	// stands.
	h2 := NewHist()
	h2.RecordNS(exact)
	prev := h2.Snapshot()
	h2.RecordNS(50)
	win := h2.Snapshot().Sub(prev)
	if win.Count != 1 {
		t.Fatalf("window count = %d, want 1", win.Count)
	}
	if win.Max() != exact {
		t.Fatalf("window max = %d, want carried %d", win.Max(), exact)
	}
}

// TestStages: a one-tenant Recorder whose op dimension is the span
// stages (how kvserver keeps its stage histograms) stripes per worker,
// merges per stage, and leaves a stage nobody recorded empty.
func TestStages(t *testing.T) {
	const queue, parse, execute = 0, 1, 2
	st := NewRecorder(2, 1, 3)
	st.Record(0, 0, queue, 100)
	st.Record(1, 0, queue, 300)
	st.Record(0, 0, execute, 9000)
	q := st.Merged(0, queue)
	if q.Count != 2 || q.Max() != 300 {
		t.Fatalf("queue stage: count=%d max=%d, want 2/300", q.Count, q.Max())
	}
	if p := st.Merged(0, parse); p.Count != 0 {
		t.Fatalf("parse stage recorded nothing, count = %d", p.Count)
	}
	all := st.MergedAll()
	if all.Count != 3 || all.Max() != 9000 {
		t.Fatalf("MergedAll: count=%d max=%d, want 3/9000", all.Count, all.Max())
	}
}

// TestRecorderStripes checks that per-worker stripes merge to the
// union and that unused cells stay unallocated.
func TestRecorderStripes(t *testing.T) {
	r := NewRecorder(4, 2, 3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Record(w, w%2, i%3, time.Duration(1000*(w+1)))
			}
		}(w)
	}
	wg.Wait()
	all := r.MergedAll()
	if all.Count != 20000 {
		t.Fatalf("total count = %d, want 20000", all.Count)
	}
	t0 := r.MergedTenant(0) // workers 0 and 2
	if t0.Count != 10000 {
		t.Fatalf("tenant 0 count = %d, want 10000", t0.Count)
	}
	if got := r.Merged(1, 0).Count; got == 0 {
		t.Fatal("tenant 1 op 0 unexpectedly empty")
	}
	if r.cell(0, 1, 0).Load() != nil {
		t.Fatal("worker 0 never recorded tenant 1: cell must stay nil")
	}
}

// TestSnapshotDuringRecording exercises report-time reads racing a
// writer (the kvserver STATS path); run under -race this is the
// package's publication-safety check.
func TestSnapshotDuringRecording(t *testing.T) {
	r := NewRecorder(1, 1, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100_000; i++ {
			r.Record(0, 0, 0, time.Duration(i))
		}
	}()
	for i := 0; i < 50; i++ {
		s := r.MergedAll()
		if s.Count > 0 && s.Percentile(0.5) < 0 {
			t.Fatal("negative percentile")
		}
	}
	<-done
	if got := r.MergedAll().Count; got != 100_000 {
		t.Fatalf("final count = %d, want 100000", got)
	}
}

// TestSnapshotSub: windowed deltas — the overload controller's signal
// — report the interval's percentiles, not the lifetime's.
func TestSnapshotSub(t *testing.T) {
	h := NewHist()
	for i := 0; i < 1000; i++ {
		h.RecordNS(100) // fast era
	}
	prev := h.Snapshot()
	for i := 0; i < 1000; i++ {
		h.RecordNS(1_000_000) // slow era
	}
	win := h.Snapshot().Sub(prev)
	if win.Count != 1000 {
		t.Fatalf("window count = %d, want 1000", win.Count)
	}
	if p99 := win.Percentile(0.99); p99 < 500_000 {
		t.Fatalf("window p99 = %d, want ~1ms (lifetime contamination?)", p99)
	}
	if life := h.Snapshot().Percentile(0.25); life > 10_000 {
		t.Fatalf("lifetime p25 = %d, sanity check failed", life)
	}
	// Sub of an empty prev is identity on counts.
	id := h.Snapshot().Sub(Snapshot{})
	if id.Count != 2000 {
		t.Fatalf("identity Sub count = %d, want 2000", id.Count)
	}
	// A non-ancestor prev clamps instead of wrapping.
	weird := prev.Sub(h.Snapshot())
	if weird.Count != 0 {
		t.Fatalf("non-ancestor Sub must clamp to zero, got %d", weird.Count)
	}
}
