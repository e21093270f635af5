package obs

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/pad"
)

// ring is the one buffer behind trace events, completed spans and tail
// exemplars; only its owning thread writes it, and no side waits on the
// other. A slot is a sequence word and payload words, all atomics. The
// writer makes the sequence odd, stores the payload and makes it even
// (2w after the slot's w-th write); a reader keeps its copy only if the
// sequence was even and unchanged across it, so a slot under write is
// left out, never torn. push appends (record i is slot i%size's
// (i/size+1)-th write, overwriting the oldest); put writes in place.
// The owner pads the ring.
type ring struct {
	words  []atomic.Uint64 // slot s is words[s*stride:][:stride]: sequence, then payload
	stride int
	shift  uint          // log2 of the slot count
	n      atomic.Uint64 // records pushed
	tail   atomic.Uint64 // first record no drain has claimed
	drops  atomic.Uint64 // claimed records drains found overwritten
}

// newRing builds a ring of slots (rounded up to a power of two) records
// of payload words.
func newRing(slots, payload int) ring {
	slots = pad.CeilPow2(slots)
	return ring{
		words:  make([]atomic.Uint64, slots*(1+payload)),
		stride: 1 + payload,
		shift:  uint(bits.TrailingZeros(uint(slots))),
	}
}

func (r *ring) size() uint64 { return 1 << r.shift }

func (r *ring) slot(s uint64) []atomic.Uint64 {
	return r.words[int(s)*r.stride:][:r.stride]
}

// put writes vals into slot s under the sequence protocol. Owner only.
func (r *ring) put(s uint64, vals ...uint64) {
	w := r.slot(s)
	seq := w[0].Load() + 1
	w[0].Store(seq)
	for i, v := range vals {
		w[1+i].Store(v)
	}
	w[0].Store(seq + 1)
}

// push appends vals as the next record. Owner only.
func (r *ring) push(vals ...uint64) {
	i := r.n.Load()
	r.put(i&(r.size()-1), vals...)
	r.n.Store(i + 1)
}

// get copies slot s's payload into dst and returns the sequence it
// validated: 0 when a write was under way, one happened during the
// copy, or the slot was never written.
func (r *ring) get(s uint64, dst []uint64) uint64 {
	w := r.slot(s)
	seq := w[0].Load()
	for i := range dst {
		dst[i] = w[1+i].Load()
	}
	if seq&1 != 0 || w[0].Load() != seq {
		return 0
	}
	return seq
}

// read calls f, oldest first, with every record in [from, to) that its
// slot still holds intact and returns how many it left out.
func (r *ring) read(from, to uint64, f func(vals []uint64)) (lost uint64) {
	if to-from > r.size() {
		lost = to - from - r.size()
		from = to - r.size()
	}
	buf := make([]uint64, r.stride-1)
	for i := from; i < to; i++ {
		if r.get(i&(r.size()-1), buf) == 2*(i>>r.shift+1) {
			f(buf)
		} else {
			lost++
		}
	}
	return lost
}

// drain claims and reads the records no earlier drain claimed, so two
// drains never return one record twice; those it leaves out are drops.
func (r *ring) drain(f func(vals []uint64)) {
	for {
		from := r.tail.Load()
		to := r.n.Load() // loaded after tail, so to >= from
		if r.tail.CompareAndSwap(from, to) {
			r.drops.Add(r.read(from, to, f))
			return
		}
	}
}

// dropped reports the records overwritten before any drain saw them.
func (r *ring) dropped() uint64 {
	tail := r.tail.Load() // loaded before n, so n >= tail
	return r.drops.Load() + max(r.n.Load()-tail, r.size()) - r.size()
}
