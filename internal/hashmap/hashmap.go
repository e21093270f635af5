// Package hashmap implements a sharded, resizable, lock-free hash map
// built from move-ready ordered lists, realizing the paper's §1.1
// motivating scenario: "one can imagine a scenario where one wants to
// compose together a hash-map and a linked list to provide a move
// operation for the user".
//
// # Structure
//
// The key space is partitioned over a fixed power-of-two number of
// shards (low hash bits). Each shard owns a chain of bucket tables: the
// oldest undrained table first, newer (larger) tables linked through
// table.next. In steady state the chain is a single table; during a grow
// it is two (the sealed table draining into its double-sized successor).
// A table holds its buckets by value in one flat array — a bucket is a
// move-ready harrislist (a head word, an object identity numbered from
// the table's block of ids, a retry counter), so reaching it costs no
// pointer hop and a table is one allocation. The map as a whole is
// move-ready — its insert/remove linearization points are the bucket's —
// and so is every individual bucket, which is what the grow path
// exploits.
//
// # Growing
//
// A grow reuses the paper's own machinery instead of ad-hoc migration
// code: every entry leaves the old bucket and enters its new bucket
// through one move (Algorithm 3), so migration inherits the composition
// guarantee — at every instant an entry is observable in exactly one
// bucket, never neither and never both. The protocol per shard:
//
//  1. seal: the live table's sealed flag is raised; new inserts bounce.
//  2. quiesce: wait for the in-flight insert count to drain to zero
//     (inserts announce themselves with a counter before re-checking the
//     seal, a store-load fence pair), so no insert can land in the old
//     table after draining starts.
//  3. drain: helpers claim old buckets through an atomic cursor and move
//     each entry with Move(oldBucket → newBucket). Failed moves mean
//     another helper or a concurrent remove got the entry first.
//  4. verify + swap: once the claim cursor is exhausted each helper
//     re-scans all buckets (covering stalled claimants — cooperation,
//     not waiting), then CASes the shard's table pointer forward.
//
// Lookups and removes never block on a grow: they walk the table chain
// from the shard's current table. Entries only migrate forward along the
// chain and a table's next pointer is never cleared, so a miss on the
// final table is a linearizable miss and stale readers always reach the
// live table.
//
// Progress: all operations are lock-free in steady state; during a grow,
// lookups, removes and moves out of the map stay lock-free, while
// inserts help migrate (cooperatively, through moves) before retrying.
// The only wait is step 2's insert-quiescence, bounded by the in-flight
// inserts admitted before the seal. Inserts arriving as the target of a
// composed Move/MoveN while the shard is mid-grow cannot help (helping
// would nest a move); instead of rejecting the composition they wait
// out the sealed table's insert-quiescence and route the insert to the
// successor table, which is already part of the lookup chain — the move
// only aborts if the key is still present in the sealed table (a
// genuine duplicate) or the chain advances underneath it.
package hashmap

import (
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harrislist"
	"repro/internal/pad"
)

// DefaultShards is the shard count used by New.
const DefaultShards = 8

// DefaultGrowLoad is the mean entries-per-bucket threshold that triggers
// a grow.
const DefaultGrowLoad = 6

// Map is a sharded, resizable lock-free hash map from uint64 keys to
// uint64 values.
//
// Map, shard and table follow one layout rule: the fields every
// operation reads (and a grow writes once) fill a header line of their
// own, and the words operations write sit on a separate, padded line —
// otherwise every writer would invalidate the line every reader needs.
// The structs are sized to whole lines, which the allocator then places
// on line boundaries; layout_test.go pins the offsets.
type Map struct {
	shards    []shard
	shardMask uint64
	shardBits uint
	growLoad  int64
	id        uint64
	_         [pad.CacheLineSize - 56]byte

	grows    atomic.Uint64 // completed seal decisions
	migrated atomic.Uint64 // entries relocated by a grow's moves
	steps    atomic.Uint64 // RebalanceStep invocations that did work
	_        [pad.CacheLineSize - 24]byte
}

var _ core.MoveReady = (*Map)(nil)

// shard is one partition: a chain of tables plus its element counter.
type shard struct {
	cur atomic.Pointer[table] // oldest undrained table; chain via next
	_   pad.Pad56

	count atomic.Int64 // written by every successful insert and remove
	_     pad.Pad56
}

// table is one bucket array generation of a shard. The buckets are held
// by value: one allocation per table and no pointer hop per operation.
type table struct {
	buckets  []harrislist.List
	mask     uint64
	sealed   atomic.Bool           // no new inserts (grow pending/running)
	draining atomic.Bool           // quiescence reached; entries may move
	next     atomic.Pointer[table] // successor table; set once, never cleared
	_        [pad.CacheLineSize - 48]byte

	ins   atomic.Int64 // in-flight inserts admitted pre-seal
	claim atomic.Int64 // next bucket index to claim for drain
	_     pad.Pad48
}

func (tb *table) bucket(h uint64, shardBits uint) *harrislist.List {
	return &tb.buckets[(h>>shardBits)&tb.mask]
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
		m.shards[i].cur.Store(m.newTable(t, per))
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
		reg.AddFunc("map_grows_total", func() uint64 { g, _, _ := m.Stats(); return g })
		reg.AddFunc("map_migrated_total", func() uint64 { _, mig, _ := m.Stats(); return mig })
		reg.AddFunc("map_migrate_steps_total", func() uint64 { _, _, steps := m.Stats(); return steps })
	}
	return m
}

// newTable builds a bucket table; every bucket gets its own object
// identity so a grow's moves see distinct source and target objects.
func (m *Map) newTable(t *core.Thread, buckets int) *table {
	tb := &table{
		buckets: make([]harrislist.List, buckets),
		mask:    uint64(buckets - 1),
	}
	id := t.Runtime().NextObjectIDs(buckets)
	for i := range tb.buckets {
		tb.buckets[i].Init(id + uint64(i))
	}
	return tb
}

// ObjectID implements core.MoveReady.
func (m *Map) ObjectID() uint64 { return m.id }

// hash is a 64-bit finalizer (splitmix64's mixer); good enough to spread
// adversarial uint64 keys over shards and buckets.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (m *Map) shard(h uint64) *shard { return &m.shards[h&m.shardMask] }

// SameChain reports whether key1 and key2 currently land in the same
// bucket chain: same shard and same bucket index in that shard's
// current table. Composed multi-key operations (core.TransferN) need
// chain-independent keys — two linearization CASes in one chain can
// target the same word, which cannot be captured twice by one k-word
// CAS — so callers reject same-chain pairs up front (a data-dependent
// condition, not a programming error). The answer is a snapshot, but a
// concurrent grow only doubles the bucket count, which preserves
// distinctness: keys in different chains stay in different chains.
func (m *Map) SameChain(key1, key2 uint64) bool {
	h1, h2 := hash(key1), hash(key2)
	if h1&m.shardMask != h2&m.shardMask {
		return false
	}
	tab := m.shard(h1).cur.Load()
	return (h1>>m.shardBits)&tab.mask == (h2>>m.shardBits)&tab.mask
}

// Insert adds (key, val); false when the key exists, or when a
// surrounding move aborts. A move targeting a mid-grow shard no longer
// aborts outright: the insert routes to the successor table (see
// insertRouted), so only a genuine duplicate fails the composition.
func (m *Map) Insert(t *core.Thread, key, val uint64) bool {
	h := hash(key)
	s := m.shard(h)
	for {
		tab := s.cur.Load()
		if tab.sealed.Load() {
			if t.MoveInFlight() {
				ok, retry := m.insertRouted(t, s, tab, h, key, val)
				if retry {
					continue
				}
				return ok
			}
			m.helpGrow(t, s, tab)
			continue
		}
		// Announce, then re-check the seal: if the re-check still reads
		// unsealed, the sealer's quiescence wait is guaranteed to see
		// this insert (both sides are sequentially consistent atomics).
		tab.ins.Add(1)
		if tab.sealed.Load() {
			tab.ins.Add(-1)
			continue // sealed branch above handles both cases
		}
		ok := tab.bucket(h, m.shardBits).Insert(t, key, val)
		tab.ins.Add(-1)
		if ok {
			n := s.count.Add(1)
			if !t.MoveInFlight() && n > int64(len(tab.buckets))*m.growLoad &&
				tab.sealed.CompareAndSwap(false, true) {
				m.grows.Add(1)
				m.helpGrow(t, s, tab)
			}
		}
		return ok
	}
}

// insertRouted is the in-move insert path for a sealed shard (the
// ROADMAP's "moves targeting a mid-grow shard abort" follow-up).
// Helping the grow would nest a move, so instead the insert goes to the
// successor table, which is already part of every reader's chain walk.
// The protocol mirrors the normal path: wait out the sealed table's
// insert-quiescence (after which its buckets can only shrink), check
// the key is not still sitting in the sealed table (that would be a
// genuine duplicate: abort the move), then announce on the successor
// and insert there. retry asks the caller to re-read the shard when the
// chain advanced mid-route.
func (m *Map) insertRouted(t *core.Thread, s *shard, tab *table, h, key, val uint64) (ok, retry bool) {
	next := m.ensureNext(t, tab)
	tab.quiesceInserts()
	if _, dup := tab.bucket(h, m.shardBits).Contains(t, key); dup {
		return false, false
	}
	next.ins.Add(1)
	if next.sealed.Load() {
		// The successor became live and was itself sealed: the sealed
		// table is fully drained, so restart from the shard's current
		// table rather than chase the chain.
		next.ins.Add(-1)
		return false, true
	}
	ok = next.bucket(h, m.shardBits).Insert(t, key, val)
	next.ins.Add(-1)
	if ok {
		s.count.Add(1)
	}
	return ok, false
}

// Remove deletes key and returns its value. It walks the shard's table
// chain: entries migrate only forward along the chain, so a miss on the
// final table linearizes as a miss on the whole map.
func (m *Map) Remove(t *core.Thread, key uint64) (uint64, bool) {
	h := hash(key)
	s := m.shard(h)
	for tab := s.cur.Load(); tab != nil; tab = tab.next.Load() {
		if v, ok := tab.bucket(h, m.shardBits).Remove(t, key); ok {
			s.count.Add(-1)
			return v, true
		}
	}
	return 0, false
}

// ContentionStats reports each shard's accumulated CAS-retry count:
// the sum, over the shard's live table chain, of every bucket list's
// lost linearization CASes (harrislist.Retries) — a shard whose counter
// climbs between two samples is being fought over right now; the sum
// over shards is the registry's cas_retries_total. Counters ride on the
// buckets, so entries migrated by a grow start fresh in the successor
// table and counts from fully drained tables age out with them: treat
// deltas, not absolutes, as the signal.
func (m *Map) ContentionStats() []uint64 {
	out := make([]uint64, len(m.shards))
	for i := range m.shards {
		var n uint64
		for tab := m.shards[i].cur.Load(); tab != nil; tab = tab.next.Load() {
			for j := range tab.buckets {
				n += tab.buckets[j].Retries()
			}
		}
		out[i] = n
	}
	return out
}

// PrepareRemove implements core.RemovePreparer for the batched move
// pipeline: a chain-walk miss is a linearizable absence observation (a
// failed batched move may linearize at it); a hit warms the shard's
// bucket path for the commit.
func (m *Map) PrepareRemove(t *core.Thread, key uint64) bool {
	_, ok := m.Contains(t, key)
	return ok
}

// PrepareInsert implements core.InsertPreparer: an occupied key would
// fail the insert (during a move: abort the composition), so the
// batched move can fail fast at the observation.
func (m *Map) PrepareInsert(t *core.Thread, key uint64) bool {
	_, dup := m.Contains(t, key)
	return !dup
}

// Contains reports presence and value, walking the table chain like
// Remove.
func (m *Map) Contains(t *core.Thread, key uint64) (uint64, bool) {
	h := hash(key)
	s := m.shard(h)
	for tab := s.cur.Load(); tab != nil; tab = tab.next.Load() {
		if v, ok := tab.bucket(h, m.shardBits).Contains(t, key); ok {
			return v, true
		}
	}
	return 0, false
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
		for tab := m.shards[i].cur.Load(); tab != nil; tab = tab.next.Load() {
			for j := range tab.buckets {
				out = append(out, tab.buckets[j].Keys(t)...)
			}
		}
	}
	return out
}

// Buckets reports the total bucket count of the live (newest) tables.
func (m *Map) Buckets() int {
	n := 0
	for i := range m.shards {
		tab := m.shards[i].cur.Load()
		for nx := tab.next.Load(); nx != nil; nx = tab.next.Load() {
			tab = nx
		}
		n += len(tab.buckets)
	}
	return n
}

// Shards reports the shard count.
func (m *Map) Shards() int { return len(m.shards) }

// Stats reports grow activity: seals decided, entries migrated by the
// grows' moves, and RebalanceStep calls that performed work.
func (m *Map) Stats() (grows, migrated, steps uint64) {
	return m.grows.Load(), m.migrated.Load(), m.steps.Load()
}

// Grow seals the live table of every shard, forcing a resize. Draining
// happens cooperatively: by subsequent inserts, by RebalanceStep calls,
// or all at once via Quiesce. Must not be called inside a move.
func (m *Map) Grow(t *core.Thread) {
	for i := range m.shards {
		tab := m.shards[i].cur.Load()
		if !tab.sealed.Load() && tab.sealed.CompareAndSwap(false, true) {
			m.grows.Add(1)
		}
	}
}

// RebalanceStep performs one bounded unit of rebalancing: it drains one
// bucket of a shard whose grow is pending (finishing the table swap when
// it was the last), or seals one shard that exceeds the load threshold.
// It reports whether it did any work, so callers can drive migration
// incrementally (a rebalancer thread loops until false). Must not be
// called inside a move.
func (m *Map) RebalanceStep(t *core.Thread) bool {
	for i := range m.shards {
		s := &m.shards[i]
		tab := s.cur.Load()
		if tab.sealed.Load() {
			m.stepGrow(t, s, tab)
			m.steps.Add(1)
			return true
		}
		if s.count.Load() > int64(len(tab.buckets))*m.growLoad &&
			tab.sealed.CompareAndSwap(false, true) {
			m.grows.Add(1)
			m.steps.Add(1)
			return true
		}
	}
	return false
}

// Quiesce drives every pending grow to completion. Must not be called
// inside a move.
func (m *Map) Quiesce(t *core.Thread) {
	for {
		work := false
		for i := range m.shards {
			s := &m.shards[i]
			if tab := s.cur.Load(); tab.sealed.Load() {
				m.helpGrow(t, s, tab)
				work = true
			}
		}
		if !work {
			return
		}
	}
}

// ensureNext links the successor table (double the buckets), racing
// other helpers; exactly one allocation wins.
func (m *Map) ensureNext(t *core.Thread, tab *table) *table {
	if next := tab.next.Load(); next != nil {
		return next
	}
	nt := m.newTable(t, len(tab.buckets)*2)
	if tab.next.CompareAndSwap(nil, nt) {
		return nt
	}
	return tab.next.Load()
}

// quiesceInserts waits out the inserts admitted before the seal (step 2
// of the grow protocol). New inserts bounce off the seal, so the counter
// only decreases.
func (tb *table) quiesceInserts() {
	if tb.draining.Load() {
		return
	}
	for tb.ins.Load() > 0 {
		runtime.Gosched()
	}
	tb.draining.Store(true)
}

// helpGrow runs the grow protocol for one sealed table to completion.
func (m *Map) helpGrow(t *core.Thread, s *shard, tab *table) {
	next := m.ensureNext(t, tab)
	tab.quiesceInserts()
	// Claimed pass: spread concurrent helpers over distinct buckets.
	for {
		i := tab.claim.Add(1) - 1
		if i >= int64(len(tab.buckets)) {
			break
		}
		m.drainBucket(t, tab, next, int(i))
	}
	m.finishGrow(t, s, tab, next)
}

// stepGrow is helpGrow's bounded sibling for RebalanceStep: one claimed
// bucket per call, then the finish sequence.
func (m *Map) stepGrow(t *core.Thread, s *shard, tab *table) {
	next := m.ensureNext(t, tab)
	tab.quiesceInserts()
	if i := tab.claim.Add(1) - 1; i < int64(len(tab.buckets)) {
		m.drainBucket(t, tab, next, int(i))
		return
	}
	m.finishGrow(t, s, tab, next)
}

// finishGrow is the shared tail of the grow protocol: a verification
// pass covering buckets whose claimant stalled (inserts are sealed out,
// so a drained bucket stays empty and one full scan suffices), then the
// table-pointer swap.
func (m *Map) finishGrow(t *core.Thread, s *shard, tab, next *table) {
	for i := range tab.buckets {
		m.drainBucket(t, tab, next, i)
	}
	s.cur.CompareAndSwap(tab, next)
}

// drainBucket migrates every entry of one sealed bucket into its new
// bucket through a move (Algorithm 3's pair path: one source, one
// target), so each relocation is atomic: the entry is in exactly one
// bucket at every instant. A failed move means a concurrent helper
// migrated the entry or a concurrent remove/move took it; either way the
// bucket shrank and the loop re-reads.
func (m *Map) drainBucket(t *core.Thread, tab, next *table, i int) {
	src := &tab.buckets[i]
	var moved uint64
	for {
		k, _, ok := src.Min(t)
		if !ok {
			break
		}
		// Mid-migration window: the table is sealed and this bucket is
		// partially drained. A migrator stalled or killed here must not
		// wedge the grow — any other thread (or reader) entering the map
		// helps the same buckets via helpGrow/stepGrow.
		t.Fault(fault.MapMidMigration)
		if _, ok := t.Move(src, next.bucket(hash(k), m.shardBits), k, k); ok {
			moved++
		}
	}
	if moved != 0 {
		m.migrated.Add(moved)
	}
}
