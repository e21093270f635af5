// Package backoff implements the service layer's retry backoff: a
// sleep-based, decorrelated-jitter schedule for millisecond-scale
// BUSY/timeout retries against an overloaded server. The paper's §6
// spin backoff is not here: only the blocking baseline's lock backs off
// that way, and it lives in internal/spin.
package backoff

import (
	"time"

	"repro/internal/xrand"
)

// Jitter is a sleep-based, decorrelated-jitter retry backoff for the
// service layer: where the blocking baseline's lock spins
// (sub-microsecond waits, internal/spin), Jitter sleeps
// (millisecond-scale BUSY/timeout retries against an overloaded
// server). Decorrelated jitter — each delay drawn uniformly
// from [base, 3×previous], capped — both spreads retries (no
// synchronized retry storms from clients that were rejected together)
// and grows the expected delay geometrically under persistent
// rejection. Draws come from a seeded xrand stream, so a load run's
// retry schedule replays under the same seed. Not safe for concurrent
// use: one per connection or worker.
type Jitter struct {
	base time.Duration
	max  time.Duration
	cur  time.Duration
	rng  *xrand.State
}

// Default sleep-backoff tuning.
const (
	DefaultJitterBase = 1 * time.Millisecond
	DefaultJitterMax  = 250 * time.Millisecond
)

// NewJitter returns a jittered backoff sleeping between base and max,
// seeded for deterministic replay. Zero base/max select the defaults;
// max below base saturates to base.
func NewJitter(base, max time.Duration, seed uint64) *Jitter {
	if base <= 0 {
		base = DefaultJitterBase
	}
	if max <= 0 {
		max = DefaultJitterMax
	}
	if max < base {
		max = base
	}
	return &Jitter{base: base, max: max, rng: xrand.New(seed)}
}

// Next returns the next delay without sleeping: uniform in
// [base, 3×previous) (decorrelated jitter), capped at max. The first
// delay after construction or Reset is uniform in [base, 3×base).
func (j *Jitter) Next() time.Duration {
	prev := j.cur
	if prev == 0 {
		prev = j.base
	}
	span := 3*prev - j.base
	d := j.base
	if span > 0 {
		d += time.Duration(j.rng.Uint64() % uint64(span))
	}
	if d > j.max {
		d = j.max
	}
	j.cur = d
	return d
}

// Sleep blocks for Next().
func (j *Jitter) Sleep() { time.Sleep(j.Next()) }

// Reset restores the starting delay; call after a successful operation.
func (j *Jitter) Reset() { j.cur = 0 }

// Current exposes the last delay handed out (tests).
func (j *Jitter) Current() time.Duration { return j.cur }
