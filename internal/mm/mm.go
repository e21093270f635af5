// Package mm implements the lock-free memory manager the paper's
// evaluation uses for every implementation (§6):
//
//	"Freed nodes are placed on a local list with a capacity of 200
//	 nodes. When the list is full it is placed on a global lock-free
//	 stack. A process that requires more nodes accesses the global
//	 stack to get a new list of free nodes. Hazard pointers were used
//	 to prevent nodes in use from being reclaimed."
//
// Allocation order: per-thread free list, then a segment popped from the
// global stack, then fresh nodes carved from the arena. Retired nodes sit
// in a per-thread retire list until a hazard-pointer scan shows no thread
// protects them, then move to the free list.
//
// The global stack pushes freshly boxed segments (one small GC allocation
// per 200 freed nodes), which is the standard Go-safe way to get an
// ABA-free Treiber stack.
package mm

import (
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/hazard"
	"repro/internal/pad"
	"repro/internal/word"
)

// LocalListCap is the capacity of the per-thread free list — 200, the
// number the paper reports.
const LocalListCap = 200

// DefaultRetireThreshold is the retire-list length that triggers a hazard
// scan when the caller does not configure one.
const DefaultRetireThreshold = 128

// segment is one batch of free node indexes on the global stack.
type segment struct {
	refs []uint64
	next *segment
}

// Manager owns the global free-node state shared by all threads. Nothing
// in it is written per node: Alloc and Retire stay inside the calling
// thread's Cache until a segment spills or a scan runs.
type Manager struct {
	arena *arena.Arena
	dom   *hazard.Domain

	carveBatch int
	retireAt   int

	// caches lists every Cache handed out, for Stats.
	cachesMu sync.Mutex
	caches   []*Cache

	// The shared words, off the read-only header's line: written once
	// per spilled/refilled segment (200 nodes) or per scan.
	_       pad.Line
	global  atomic.Pointer[segment]
	scans   atomic.Uint64
	spills  atomic.Uint64
	refills atomic.Uint64
}

// Config tunes a Manager.
type Config struct {
	// CarveBatch is how many fresh nodes to carve from the arena when
	// both the local list and the global stack are empty. Defaults to
	// LocalListCap.
	CarveBatch int
	// RetireThreshold is the retire-list length that triggers a scan.
	// Defaults to DefaultRetireThreshold.
	RetireThreshold int
}

// New creates a Manager over the given arena and node hazard domain.
func New(a *arena.Arena, dom *hazard.Domain, cfg Config) *Manager {
	if cfg.CarveBatch <= 0 {
		cfg.CarveBatch = LocalListCap
	}
	if cfg.RetireThreshold <= 0 {
		cfg.RetireThreshold = DefaultRetireThreshold
	}
	return &Manager{arena: a, dom: dom, carveBatch: cfg.CarveBatch, retireAt: cfg.RetireThreshold}
}

// Arena returns the backing arena.
func (m *Manager) Arena() *arena.Arena { return m.arena }

// pushGlobal publishes a full free list as a segment on the global stack.
func (m *Manager) pushGlobal(refs []uint64) {
	seg := &segment{refs: refs}
	for {
		top := m.global.Load()
		seg.next = top
		if m.global.CompareAndSwap(top, seg) {
			m.spills.Add(1)
			return
		}
	}
}

// popGlobal takes one segment off the global stack, or nil.
func (m *Manager) popGlobal() *segment {
	for {
		top := m.global.Load()
		if top == nil {
			return nil
		}
		if m.global.CompareAndSwap(top, top.next) {
			m.refills.Add(1)
			return top
		}
	}
}

// GlobalSegments counts segments currently on the global stack (O(n),
// tests only).
func (m *Manager) GlobalSegments() int {
	n := 0
	for s := m.global.Load(); s != nil; s = s.next {
		n++
	}
	return n
}

// Stats reports cumulative counters: allocations, frees, hazard scans,
// spills to and refills from the global stack. Allocations and frees are
// summed over the caches' owner-written counters, so they are exact only
// at quiescence: call Stats once the threads owning the caches have
// stopped (tests and diagnostics), never beside them.
func (m *Manager) Stats() (allocs, frees, scans, spills, refills uint64) {
	m.cachesMu.Lock()
	for _, c := range m.caches {
		allocs += c.allocs
		frees += c.frees
	}
	m.cachesMu.Unlock()
	return allocs, frees, m.scans.Load(), m.spills.Load(), m.refills.Load()
}

// Cache is the per-thread view of the manager. Not safe for concurrent
// use; each registered thread owns exactly one. Every field is written
// by the owner alone, and the padding keeps two threads' caches off a
// common line wherever the allocator places them.
type Cache struct {
	_       pad.Line
	m       *Manager
	tid     int
	free    []uint64
	retired []uint64
	snap    []uint64
	// allocs/frees count this cache's Alloc and Retire/FreeDirect calls
	// (Manager.Stats sums them).
	allocs, frees uint64
	_             pad.Line
}

// NewCache creates the per-thread cache for thread tid.
func (m *Manager) NewCache(tid int) *Cache {
	c := &Cache{
		m:       m,
		tid:     tid,
		free:    make([]uint64, 0, LocalListCap+1),
		retired: make([]uint64, 0, m.retireAt+16),
	}
	m.cachesMu.Lock()
	m.caches = append(m.caches, c)
	m.cachesMu.Unlock()
	return c
}

// Alloc returns a fresh node reference with the node's words reset. The
// reference has tag 0 and no marks.
func (c *Cache) Alloc() uint64 {
	idx := c.allocIndex()
	n := c.m.arena.NodeAt(idx)
	n.Next.Store(word.Nil)
	n.Aux = 0
	n.Val = 0
	n.Key = 0
	c.allocs++
	return word.MakeNode(idx, 0)
}

func (c *Cache) allocIndex() uint64 {
	if n := len(c.free); n > 0 {
		idx := c.free[n-1]
		c.free = c.free[:n-1]
		return idx
	}
	if seg := c.m.popGlobal(); seg != nil {
		c.free = append(c.free[:0], seg.refs...)
		idx := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		return idx
	}
	c.free = c.m.arena.Carve(c.free[:0], c.m.carveBatch)
	idx := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return idx
}

// Retire hands a node back once it has been unlinked from every shared
// structure. The node is not reusable until a hazard scan proves no
// thread still protects it.
func (c *Cache) Retire(ref uint64) {
	c.retired = append(c.retired, word.NodeIndex(ref))
	c.frees++
	if len(c.retired) >= c.m.retireAt {
		c.Scan()
	}
}

// FreeDirect returns a node that was never published to any shared word
// (for example an insert aborted before its linearization CAS, lines
// Q15–Q17 / S8–S10). No other thread can hold a reference, so it skips
// the hazard scan.
func (c *Cache) FreeDirect(ref uint64) {
	c.frees++
	c.pushFree(word.NodeIndex(ref))
}

// Scan partitions the retire list against a snapshot of all hazard
// pointers; unprotected nodes move to the free list (Michael's scan).
func (c *Cache) Scan() {
	c.m.scans.Add(1)
	c.snap = c.m.dom.Snapshot(c.snap)
	kept := c.retired[:0]
	for _, idx := range c.retired {
		if hazard.Protected(c.snap, idx) {
			kept = append(kept, idx)
		} else {
			c.pushFree(idx)
		}
	}
	c.retired = kept
}

// pushFree appends to the local free list, spilling a full segment to the
// global stack at LocalListCap, per §6.
func (c *Cache) pushFree(idx uint64) {
	c.free = append(c.free, idx)
	if len(c.free) >= LocalListCap {
		seg := make([]uint64, len(c.free))
		copy(seg, c.free)
		c.m.pushGlobal(seg)
		c.free = c.free[:0]
	}
}

// Flush force-scans until the retire list is empty or stops shrinking,
// then spills the free list to the global stack. Used at thread
// shutdown so another thread can reuse the memory.
func (c *Cache) Flush() {
	for prev := -1; len(c.retired) > 0 && len(c.retired) != prev; {
		prev = len(c.retired)
		c.Scan()
	}
	if len(c.free) > 0 {
		seg := make([]uint64, len(c.free))
		copy(seg, c.free)
		c.m.pushGlobal(seg)
		c.free = c.free[:0]
	}
}

// LocalFree and LocalRetired expose list lengths for tests.
func (c *Cache) LocalFree() int    { return len(c.free) }
func (c *Cache) LocalRetired() int { return len(c.retired) }
