// Package spin provides the test-test-and-set lock the paper uses for
// its blocking baseline (§6: "simple blocking implementations using
// test-test-and-set to implement a lock"), with §6's exponential
// backoff on every failed acquisition: "every time a thread failed to
// acquire the lock or, in case of the lock-free objects, failed to
// insert or remove an element due to a conflict, the time it waited
// before trying again was doubled. The starting wait time and the
// maximum wait time were adjusted so as to give the best performance".
//
// Only the lock backs off. A lost CAS in a lock-free container means
// another thread's operation completed, so its retry waits on no holder
// and a backoff there only adds delay (hypotheses/README.md, H30).
package spin

import (
	"runtime"
	"sync/atomic"

	"repro/internal/pad"
)

// TTAS is a test-test-and-set spin lock. The zero value is unlocked.
type TTAS struct {
	state atomic.Uint32
	_     pad.Line
}

// Lock acquires the lock. It attempts the atomic swap only when a plain
// read finds the lock free (the "test-test" part, which keeps the cache
// line shared while the lock is held), and doubles a busy-wait after
// every failed attempt, so waiters leave the holder's line alone.
func (l *TTAS) Lock() {
	var b exp
	for !(l.state.Load() == 0 && l.state.CompareAndSwap(0, 1)) {
		b.wait()
	}
}

// Unlock releases the lock. Calling Unlock on an unlocked lock panics, as
// that always indicates a bug in lock pairing.
func (l *TTAS) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("spin: unlock of unlocked TTAS lock")
	}
}

// Locked reports whether the lock is currently held (for tests).
func (l *TTAS) Locked() bool { return l.state.Load() != 0 }

// Backoff tuning in spin iterations, chosen on the benchmark host the
// way the paper tunes its blocking baseline: best blocking throughput at
// 16 threads.
const (
	defaultStart = 1 << 4
	defaultMax   = 1 << 14
)

// exp is an exponential backoff with doubling waits; its zero value
// starts at defaultStart. Lock keeps one on its stack, so it needs no
// synchronisation.
type exp struct{ cur uint32 }

// wait spins for the current wait time and doubles it for next time,
// saturating at defaultMax.
func (b *exp) wait() {
	if b.cur == 0 {
		b.cur = defaultStart
	}
	spinFor(b.cur)
	if b.cur < defaultMax {
		b.cur <<= 1
	}
}

// spinSink defeats dead-code elimination of the spin loop; atomic so
// concurrent waiters don't race on it.
var spinSink atomic.Uint64

// spinFor busy-waits for roughly n cheap iterations, yielding the
// processor occasionally so a single-core host still makes global
// progress. Waits are sub-microsecond at first, so it spins rather than
// sleeps: sleeping would hand the processor to the scheduler.
func spinFor(n uint32) {
	var acc uint64
	for i := uint32(0); i < n; i++ {
		acc += uint64(i)
		if i&1023 == 1023 {
			runtime.Gosched()
		}
	}
	spinSink.Add(acc)
}
