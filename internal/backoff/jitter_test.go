package backoff

import (
	"testing"
	"time"
)

// TestJitterBoundsAndGrowth: every delay stays in [base, max]; the
// ceiling (3x previous) grows under persistent failure so retry
// pressure decays; Reset restores the floor.
func TestJitterBoundsAndGrowth(t *testing.T) {
	base, max := 1*time.Millisecond, 64*time.Millisecond
	j := NewJitter(base, max, 42)
	prev := base
	sawGrowth := false
	for i := 0; i < 200; i++ {
		d := j.Next()
		if d < base || d > max {
			t.Fatalf("delay %v outside [%v, %v]", d, base, max)
		}
		if d >= 3*prev {
			t.Fatalf("delay %v >= 3x previous %v (not decorrelated-jitter bounded)", d, prev)
		}
		if d > 10*base {
			sawGrowth = true
		}
		prev = d
	}
	if !sawGrowth {
		t.Fatal("200 consecutive failures never grew the delay past 10x base")
	}
	j.Reset()
	if d := j.Next(); d >= 3*base {
		t.Fatalf("post-Reset delay %v must restart near base %v", d, base)
	}
}

// TestJitterDeterministicPerSeed: same seed, same schedule — a chaos
// run's retry timing replays.
func TestJitterDeterministicPerSeed(t *testing.T) {
	a := NewJitter(0, 0, 7)
	b := NewJitter(0, 0, 7)
	for i := 0; i < 50; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, da, db)
		}
	}
	c := NewJitter(0, 0, 8)
	same := true
	a.Reset()
	aa := NewJitter(0, 0, 7)
	for i := 0; i < 50; i++ {
		if aa.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestJitterDefaultsAndSaturation: zero tuning selects defaults; max
// below base saturates.
func TestJitterDefaultsAndSaturation(t *testing.T) {
	j := NewJitter(0, 0, 1)
	if d := j.Next(); d < DefaultJitterBase || d > DefaultJitterMax {
		t.Fatalf("default-tuned delay %v outside defaults", d)
	}
	s := NewJitter(10*time.Millisecond, time.Millisecond, 1)
	if d := s.Next(); d != 10*time.Millisecond {
		t.Fatalf("max<base must saturate to base, got %v", d)
	}
}
