package latency

import (
	"sort"
	"testing"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples by
// linear interpolation between order statistics — the exact reference
// the bucketed percentiles are validated against (TestPercentilesMatchExact).
// An empty slice yields 0.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Edge cases of the exact reference quantile: the bucketed percentiles
// are validated against Quantile, so its behavior at the degenerate
// inputs (empty, singleton, out-of-range q) is part of that contract.

func TestQuantileEmpty(t *testing.T) {
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := Quantile(nil, q); got != 0 {
			t.Fatalf("Quantile(nil, %v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileSingle(t *testing.T) {
	s := []float64{42}
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 1, 1.5} {
		if got := Quantile(s, q); got != 42 {
			t.Fatalf("Quantile([42], %v) = %v, want 42", q, got)
		}
	}
}

func TestQuantileClampsOutOfRangeQ(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := Quantile(s, -3); got != 1 {
		t.Fatalf("q<0 must clamp to min: got %v", got)
	}
	if got := Quantile(s, 7); got != 4 {
		t.Fatalf("q>1 must clamp to max: got %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20}
	if got := Quantile(s, 0.5); got != 15 {
		t.Fatalf("midpoint of {10,20} = %v, want 15", got)
	}
	if got := Quantile(s, 0.25); got != 12.5 {
		t.Fatalf("q=0.25 of {10,20} = %v, want 12.5", got)
	}
}

func TestQuantileUnsortedInputUnmutated(t *testing.T) {
	s := []float64{5, 1, 3}
	if got := Quantile(s, 1); got != 5 {
		t.Fatalf("max of {5,1,3} = %v, want 5", got)
	}
	if s[0] != 5 || s[1] != 1 || s[2] != 3 {
		t.Fatalf("Quantile mutated its input: %v", s)
	}
}

func TestQuantileAllEqual(t *testing.T) {
	// A "single bucket" sample set: every quantile is that value.
	s := []float64{7, 7, 7, 7, 7}
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		if got := Quantile(s, q); got != 7 {
			t.Fatalf("Quantile(all-7s, %v) = %v, want 7", q, got)
		}
	}
}
