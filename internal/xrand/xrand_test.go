package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds should give different streams")
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must still produce non-degenerate output")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %f", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance %f", variance)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %f", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %f", variance)
	}
}

func TestNormDuration(t *testing.T) {
	r := New(17)
	const mean, sd = 100.0, 20.0
	var sum float64
	for i := 0; i < 100000; i++ {
		d := r.NormDuration(mean, sd)
		if d < 0 {
			t.Fatal("NormDuration must be non-negative")
		}
		sum += d
	}
	got := sum / 100000
	if math.Abs(got-mean) > 2 {
		t.Fatalf("NormDuration mean %f want ~%f", got, mean)
	}
}

func TestUint32(t *testing.T) {
	r := New(19)
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint32()] = true
	}
	if len(seen) < 95 {
		t.Fatal("Uint32 outputs suspiciously repetitive")
	}
}
