// Package hashmap implements a sharded, resizable, lock-free hash map
// over move-ready ordered lists, realizing the paper's §1.1 motivating
// scenario: "one can imagine a scenario where one wants to compose
// together a hash-map and a linked list to provide a move operation for
// the user".
//
// # Structure
//
// shard → directory → anchor → split-ordered list. The key space is
// partitioned over a fixed power-of-two number of shards (low hash
// bits). A shard points at its current directory, and a directory maps a
// bucket index (the next hash bits) to an anchor: the word a list
// traversal starts at. The shard's initial buckets are a flat array of
// head words held by value, one list each, shared by every directory of
// the shard — a map that never grows reaches an entry through the shard,
// the directory header and the head word, nothing else. Every list is
// kept in split order (Shalev & Shavit): nodes ascend by the bit-reversed
// hash, bits.Reverse64(hash(key)), all 64 bits — hash is a bijection, so
// distinct keys never tie. A bucket added by a grow is not a new list: it
// is a sentinel node inside an existing one, carrying the bit-reversed
// bucket index as its order key and sorting before an entry with the same
// order key (arena.Node.Aux: 0 for a sentinel, 1 for an entry); the
// directory's slot for that bucket holds the sentinel's reference, and
// the bucket's anchor is the sentinel's Next word. Insert, Remove and
// Contains are hash → shard → directory → anchor → the one validated
// Michael traversal of package harrislist, started at that anchor; their
// linearization points are the list's scas calls, so the map is
// move-ready as a whole.
//
// # Growing
//
// A grow moves nothing. It is one CAS that publishes a directory with
// twice the slots (old slot values copied; directories are ordinary
// garbage-collected memory). Slot b of the new half starts empty and is
// filled by whoever needs bucket b first: search from the parent
// bucket's anchor (b with its top bit cleared, recursively) for the
// sentinel's order key, reuse the sentinel if it is there, otherwise
// allocate one and link it with a plain CAS — never through scas: like
// Harris' physical unlink the link is structural, and a surrounding
// Move/MoveN/TransferN must not capture it as one of its entries.
// Sentinels are never removed or retired (they live as long as the
// runtime's arena), so a traversal started at one needs no hazard. The
// thread that wins a doubling links the new sentinels right away, but
// nobody depends on it: a thread that needs one first links it itself.
//
// Why no entry has to move: at directory size S an entry with hash h
// lives in bucket h mod S, after that bucket's sentinel. At size 2S its
// bucket is h mod 2S, whose index extends h mod S by one bit — so in bit-
// reversed order the new sentinel falls inside the old bucket's range,
// and the entries of the new bucket are exactly the old bucket's suffix
// from there on. Linking the sentinel splits the bucket in place; a
// traversal started from the old (shorter) anchor still reaches every
// entry, so a thread holding a stale directory is correct, only slower.
//
// # Progress
//
// Every operation is lock-free at all times; nothing waits. A thread
// parked or killed between publishing a directory and linking its
// sentinels (fault.MapMidGrow) delays nobody. Grow, RebalanceStep and
// Quiesce let a caller double on demand or finish the linking early; they
// are never needed for correctness.
//
// # Composed operations × grow
//
// Entries never move, so a grow cannot race a Move: the words a composed
// operation captures — a node's Next for a remove, its predecessor's for
// an insert — are the same words before, during and after any number of
// doublings, and the only writes a grow makes to the lists are sentinel
// links, which a racing k-word CAS sees as an ordinary conflict on that
// word (retry). A doubling decided inside a move is legal: it is a CAS
// on the shard's directory pointer, no operation is helped.
package hashmap

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harrislist"
	"repro/internal/pad"
	"repro/internal/word"
)

// DefaultShards is the shard count used by New.
const DefaultShards = 8

// DefaultGrowLoad is the mean entries-per-bucket threshold that triggers
// a grow.
const DefaultGrowLoad = 6

// Aux values of the map's nodes: a sentinel sorts before the entry that
// shares its order key.
const (
	auxSentinel = 0
	auxEntry    = 1
)

// Map is a sharded, resizable lock-free hash map from uint64 keys to
// uint64 values.
//
// Map, shard and directory follow one layout rule: the fields every
// operation reads fill a header line of their own, and the words
// operations write sit on a separate, padded line — otherwise every
// writer would invalidate the line every reader needs. The structs are
// sized to whole lines, which the allocator then places on line
// boundaries; layout_test.go pins the offsets.
type Map struct {
	shards    []shard
	shardMask uint64
	shardBits uint
	growLoad  int64
	id        uint64
	_         [pad.CacheLineSize - 56]byte

	grows     atomic.Uint64 // directory doublings
	sentinels atomic.Uint64 // sentinel nodes linked
	steps     atomic.Uint64 // RebalanceStep invocations that did work
	_         [pad.CacheLineSize - 24]byte
}

var _ core.MoveReady = (*Map)(nil)

// shard is one partition: its current directory, its element counter and
// its contention counter.
type shard struct {
	dir atomic.Pointer[directory] // replaced by a grow, never cleared
	_   pad.Pad56

	count   atomic.Int64  // written by every successful insert and remove
	retries atomic.Uint64 // linearization CASes lost in this shard's lists
	_       pad.Pad48
}

// directory maps a shard's bucket indexes to anchors. Immutable apart
// from the slot values, which only ever go from 0 to a sentinel's
// reference, and RebalanceStep's cursor.
type directory struct {
	heads []word.Word     // the initial buckets' head words; shared by every directory of the shard
	slots []atomic.Uint64 // slot b >= len(heads): bucket b's sentinel, 0 until linked; nil before the first grow
	mask  uint64          // bucket count - 1
	_     [pad.CacheLineSize - 56]byte

	scan atomic.Uint64 // RebalanceStep's cursor: every slot below it is linked
	_    pad.Pad56
}

// New creates a map with the given total initial bucket count spread
// over DefaultShards shards (fewer when buckets is smaller) and the
// default grow threshold.
func New(t *core.Thread, buckets int) *Map {
	shards := DefaultShards
	if b := pad.CeilPow2(buckets); b < shards {
		shards = b
	}
	per := pad.CeilPow2((buckets + shards - 1) / shards)
	return NewSharded(t, shards, per, DefaultGrowLoad)
}

// NewSharded creates a map with an explicit shape: shards (rounded up to
// a power of two), initial buckets per shard (likewise), and the mean
// entries-per-bucket load at which a shard grows (<= 0 selects
// DefaultGrowLoad).
func NewSharded(t *core.Thread, shards, bucketsPerShard, growLoad int) *Map {
	ns := pad.CeilPow2(shards)
	if growLoad <= 0 {
		growLoad = DefaultGrowLoad
	}
	m := &Map{
		shards:    make([]shard, ns),
		shardMask: uint64(ns - 1),
		growLoad:  int64(growLoad),
		id:        t.Runtime().NextObjectID(),
	}
	for ns > 1 {
		m.shardBits++
		ns >>= 1
	}
	per := pad.CeilPow2(bucketsPerShard)
	for i := range m.shards {
		m.shards[i].dir.Store(&directory{heads: make([]word.Word, per), mask: uint64(per - 1)})
	}
	if reg := t.Runtime().Obs().Metrics(); reg != nil {
		// Registry pulls: map-wide aggregates reading the same atomics
		// the legacy accessors (ContentionStats, Stats) report, so the
		// two surfaces cannot drift.
		reg.AddFunc("cas_retries_total", func() uint64 {
			var total uint64
			for _, v := range m.ContentionStats() {
				total += v
			}
			return total
		})
		reg.AddFunc("map_grows_total", func() uint64 { return m.grows.Load() })
	}
	return m
}

// ObjectID implements core.MoveReady.
func (m *Map) ObjectID() uint64 { return m.id }

// hash is a 64-bit finalizer (splitmix64's mixer): a bijection that
// spreads adversarial uint64 keys over shards and buckets.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// unhash inverts hash (the multipliers are the modular inverses of
// hash's); Keys recovers a key from a node's order key with it.
func unhash(h uint64) uint64 {
	h ^= h>>31 ^ h>>62
	h *= 0x319642b2d24d8ec3
	h ^= h>>27 ^ h>>54
	h *= 0x96de1b173f119089
	h ^= h>>30 ^ h>>60
	return h
}

func (m *Map) shard(h uint64) *shard { return &m.shards[h&m.shardMask] }

// anchor returns the word a traversal for hash h starts at under
// directory d: an initial bucket's head word, or the Next word of the
// bucket's sentinel — linked first when nobody has yet. The hazard slots
// are the caller's side's (insert or remove).
func (m *Map) anchor(t *core.Thread, d *directory, h uint64, slotPrev, slotCur int) *word.Word {
	b := (h >> m.shardBits) & d.mask
	if b < uint64(len(d.heads)) {
		return &d.heads[b]
	}
	return &t.Node(m.sentinel(t, d, h&m.shardMask, b, slotPrev, slotCur)).Next
}

// sentinel returns bucket b's sentinel in shard si, linking it into its
// parent bucket's list when the slot is still empty. Idempotent and
// lock-free: racing callers agree on one node (harrislist.LinkAt), and a
// slot a directory copy missed is found again by the search.
func (m *Map) sentinel(t *core.Thread, d *directory, si, b uint64, slotPrev, slotCur int) uint64 {
	if ref := d.slots[b].Load(); ref != 0 {
		return ref
	}
	from := &d.heads[b&uint64(len(d.heads)-1)]
	if parent := b &^ (1 << (bits.Len64(b) - 1)); parent >= uint64(len(d.heads)) {
		from = &t.Node(m.sentinel(t, d, si, parent, slotPrev, slotCur)).Next
	}
	ref, linked := harrislist.LinkAt(t, from, bits.Reverse64(b<<m.shardBits|si), auxSentinel, slotPrev, slotCur)
	if linked {
		m.sentinels.Add(1)
	}
	d.slots[b].Store(ref)
	return ref
}

// double publishes a directory with twice d's buckets in place of d and
// returns it, or nil when another grow already replaced d.
func (m *Map) double(s *shard, d *directory) *directory {
	n := 2 * (int(d.mask) + 1)
	nd := &directory{heads: d.heads, slots: make([]atomic.Uint64, n), mask: uint64(n - 1)}
	for i := len(d.heads); i < len(d.slots); i++ {
		nd.slots[i].Store(d.slots[i].Load())
	}
	if !s.dir.CompareAndSwap(d, nd) {
		return nil
	}
	m.grows.Add(1)
	return nd
}

// SameChain reports whether key1 and key2 land in the same bucket: same
// shard and same bucket index at the directory size it reads. Composed
// multi-key operations (core.TransferN) need word-independent keys — two
// linearization CASes on neighbouring nodes can target the same word,
// which cannot be captured twice by one k-word CAS — so callers reject
// same-bucket pairs up front (a data-dependent condition, not a
// programming error). The answer is a snapshot, and it stays good: two
// keys in different buckets at size S are in different buckets at every
// later size, and every operation on either key first makes sure its own
// bucket's sentinel is linked — a node that sorts between the two keys
// from then on, so neither key's node, nor its predecessor's Next word,
// can be the other's.
func (m *Map) SameChain(key1, key2 uint64) bool {
	h1, h2 := hash(key1), hash(key2)
	if h1&m.shardMask != h2&m.shardMask {
		return false
	}
	mask := m.shard(h1).dir.Load().mask
	return (h1>>m.shardBits)&mask == (h2>>m.shardBits)&mask
}

// Insert adds (key, val); false when the key exists, or when a
// surrounding move aborts. The insert that takes its shard over the load
// threshold doubles the shard's directory — also inside a move: the
// doubling is a CAS, nothing is helped — and links the new sentinels.
func (m *Map) Insert(t *core.Thread, key, val uint64) bool {
	h := hash(key)
	s := m.shard(h)
	d := s.dir.Load()
	from := m.anchor(t, d, h, core.SlotInsAux, core.SlotIns0)
	if !harrislist.InsertAt(t, from, bits.Reverse64(h), auxEntry, val, &s.retries) {
		return false
	}
	if s.count.Add(1) > int64(d.mask+1)*m.growLoad {
		if nd := m.double(s, d); nd != nil {
			// A thread stalled or killed here leaves a directory whose new
			// half is all empty slots; peers link what they need.
			t.Fault(fault.MapMidGrow)
			m.linkAll(t, nd, h&m.shardMask)
		}
	}
	return true
}

// linkAll links every missing sentinel of d, a directory of shard si,
// under the insert-side hazard slots: its callers are an insert that has
// finished with them, or no operation at all.
func (m *Map) linkAll(t *core.Thread, d *directory, si uint64) {
	for b := uint64(len(d.heads)); b < uint64(len(d.slots)); b++ {
		m.sentinel(t, d, si, b, core.SlotInsAux, core.SlotIns0)
	}
}

// Remove deletes key and returns its value.
func (m *Map) Remove(t *core.Thread, key uint64) (uint64, bool) {
	h := hash(key)
	s := m.shard(h)
	from := m.anchor(t, s.dir.Load(), h, core.SlotRemAux, core.SlotRem0)
	v, ok := harrislist.RemoveAt(t, from, bits.Reverse64(h), auxEntry, &s.retries)
	if ok {
		s.count.Add(-1)
	}
	return v, ok
}

// ContentionStats reports each shard's accumulated CAS-retry count: the
// linearization CASes its inserts and removes lost to concurrent writers
// — a shard whose counter climbs between two samples is being fought
// over right now; the sum over shards is the registry's
// cas_retries_total.
func (m *Map) ContentionStats() []uint64 {
	out := make([]uint64, len(m.shards))
	for i := range m.shards {
		out[i] = m.shards[i].retries.Load()
	}
	return out
}

// Contains reports presence and value.
func (m *Map) Contains(t *core.Thread, key uint64) (uint64, bool) {
	h := hash(key)
	from := m.anchor(t, m.shard(h).dir.Load(), h, core.SlotRemAux, core.SlotRem0)
	return harrislist.ContainsAt(t, from, bits.Reverse64(h), auxEntry)
}

// Len reports the element count from the per-shard counters: exact at
// quiescence, a momentary snapshot under concurrency.
func (m *Map) Len(t *core.Thread) int {
	n := int64(0)
	for i := range m.shards {
		n += m.shards[i].count.Load()
	}
	return int(n)
}

// Keys returns every key (quiescent use: audits and tests). Order is
// unspecified.
func (m *Map) Keys(t *core.Thread) []uint64 {
	var out []uint64
	for i := range m.shards {
		heads := m.shards[i].dir.Load().heads
		for j := range heads {
			harrislist.Walk(t, &heads[j], func(n *arena.Node) {
				if n.Aux == auxEntry {
					out = append(out, unhash(bits.Reverse64(n.Key)))
				}
			})
		}
	}
	return out
}

// Buckets reports the total bucket count of the current directories.
func (m *Map) Buckets() int {
	n := 0
	for i := range m.shards {
		n += int(m.shards[i].dir.Load().mask) + 1
	}
	return n
}

// Shards reports the shard count.
func (m *Map) Shards() int { return len(m.shards) }

// Stats reports grow activity: directory doublings, sentinels linked,
// and RebalanceStep calls that performed work.
func (m *Map) Stats() (grows, sentinels, steps uint64) {
	return m.grows.Load(), m.sentinels.Load(), m.steps.Load()
}

// Grow doubles the directory of every shard. The new sentinels are
// linked on demand: by the operations that need them, by RebalanceStep
// calls, or all at once via Quiesce.
func (m *Map) Grow(t *core.Thread) {
	for i := range m.shards {
		s := &m.shards[i]
		m.double(s, s.dir.Load())
	}
}

// RebalanceStep performs one bounded unit of rebalancing: it doubles one
// shard that exceeds the load threshold, or links one missing sentinel.
// It reports whether it did any work, so callers can drive the linking
// incrementally (a rebalancer thread loops until false).
func (m *Map) RebalanceStep(t *core.Thread) bool {
	for i := range m.shards {
		s := &m.shards[i]
		d := s.dir.Load()
		if s.count.Load() > int64(d.mask+1)*m.growLoad {
			if m.double(s, d) != nil {
				m.steps.Add(1)
				return true
			}
			d = s.dir.Load()
		}
		from := max(d.scan.Load(), uint64(len(d.heads)))
		b := from
		for b < uint64(len(d.slots)) && d.slots[b].Load() != 0 {
			b++
		}
		missing := b < uint64(len(d.slots))
		if missing {
			m.sentinel(t, d, uint64(i), b, core.SlotInsAux, core.SlotIns0)
			b++
		}
		if b != from {
			d.scan.Store(b)
		}
		if missing {
			m.steps.Add(1)
			return true
		}
	}
	return false
}

// Quiesce links every missing sentinel of every shard.
func (m *Map) Quiesce(t *core.Thread) {
	for i := range m.shards {
		m.linkAll(t, m.shards[i].dir.Load(), uint64(i))
	}
}
