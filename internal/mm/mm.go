// Package mm implements the lock-free memory manager the paper's
// evaluation uses for every implementation (§6):
//
//	"Freed nodes are placed on a local list with a capacity of 200
//	 nodes. When the list is full it is placed on a global lock-free
//	 stack. A process that requires more nodes accesses the global
//	 stack to get a new list of free nodes. Hazard pointers were used
//	 to prevent nodes in use from being reclaimed."
//
// Each thread keeps two such lists, the loaded one and one spare, after
// the "loaded + previous magazine" pair of Bonwick & Adams, Magazines and
// Vmem (USENIX ATC 2001). With one list, a thread that frees as often as
// it allocates (every Move) crosses the 200-node boundary back and forth
// and trades a list with the global stack each time; with two, a full
// list goes to the global stack only when the spare is full too, and a
// thread refills from it only when both are empty. Such a thread never
// touches the global stack.
//
// Allocation order: the loaded list, then the spare, then a list popped
// from the global stack, then fresh nodes carved from the arena. Retired
// nodes sit in a per-thread retire list until a hazard-pointer scan shows
// no thread protects them, then move to the loaded list. A scan runs
// when the retire list reaches its threshold, and once more in an Alloc
// that finds every other source empty. So a failed Alloc (word.Nil)
// guarantees that the caller's two lists, the global stack and the
// arena were empty and that every node in the caller's retire list was
// protected by a hazard pointer at that scan. It does not guarantee
// that the arena has no free node: a peer's two lists can hold up to
// 2·LocalListCap free nodes that reach the global stack only as full
// lists.
//
// A cache owns its two buffers for life. A spill copies the list into a
// freshly boxed segment (the standard Go-safe way to get an ABA-free
// Treiber stack) and a refill copies a segment into the empty list, so
// the GC allocations per 200 freed nodes (the copy and its box) happen
// only when a thread frees more than it allocates. Handing the buffers
// over instead of copying them cost a fill-and-drain workload 5 % of its
// resident size (hypotheses/README.md, H16) and saves nothing where it
// matters: a balanced thread never spills.
package mm

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/hazard"
	"repro/internal/pad"
	"repro/internal/word"
)

// LocalListCap is the capacity of each of a thread's two free lists —
// 200, the number the paper reports.
const LocalListCap = 200

// DefaultRetireThreshold is the retire-list length that triggers a hazard
// scan.
const DefaultRetireThreshold = 128

// segment is one free list on the global stack.
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

	// caches lists every Cache handed out, for Stats.
	cachesMu sync.Mutex
	caches   []*Cache

	// The shared words, off the read-only header's line: written once
	// per spilled/refilled list (200 nodes) or per scan.
	_       pad.Line
	global  atomic.Pointer[segment]
	scans   atomic.Uint64
	spills  atomic.Uint64
	refills atomic.Uint64
}

// New creates a Manager over the given arena and node hazard domain.
func New(a *arena.Arena, dom *hazard.Domain) *Manager {
	return &Manager{arena: a, dom: dom}
}

// Arena returns the backing arena.
func (m *Manager) Arena() *arena.Arena { return m.arena }

// pushGlobal publishes a free list as a segment on the global stack.
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

// GlobalSegments counts lists currently on the global stack (O(n),
// tests only).
func (m *Manager) GlobalSegments() int {
	n := 0
	for s := m.global.Load(); s != nil; s = s.next {
		n++
	}
	return n
}

// Stats reports cumulative counters: allocations, frees, hazard scans,
// lists spilled to and refilled from the global stack. Allocations and
// frees are summed over the caches' owner-written counters, so they are
// exact only at quiescence: call Stats once the threads owning the
// caches have stopped (tests and diagnostics), never beside them.
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
	free    []uint64 // the loaded list: Alloc pops and frees append here
	spare   []uint64 // the other list, either empty or full
	retired []uint64
	snap    []uint64
	// allocs/frees count this cache's Alloc and Retire/FreeDirect calls
	// (Manager.Stats sums them).
	allocs, frees uint64
	_             pad.Line
}

// NewCache creates the per-thread cache for thread tid.
func (m *Manager) NewCache(tid int) *Cache {
	lists := make([]uint64, 2*LocalListCap) // both free lists, back to back
	c := &Cache{
		m:       m,
		tid:     tid,
		free:    lists[:0:LocalListCap],
		spare:   lists[LocalListCap:LocalListCap],
		retired: make([]uint64, 0, DefaultRetireThreshold+16),
	}
	m.cachesMu.Lock()
	m.caches = append(m.caches, c)
	m.cachesMu.Unlock()
	return c
}

// Alloc returns a fresh node reference with the node's words reset, or
// word.Nil when the free lists, the global stack and the arena are all
// empty and a scan of the retire list freed nothing. The reference has
// tag 0 and no marks.
func (c *Cache) Alloc() uint64 {
	if len(c.free) == 0 {
		if len(c.spare) > 0 { // full
			c.free, c.spare = c.spare, c.free
		} else if seg := c.m.popGlobal(); seg != nil {
			c.free = append(c.free, seg.refs...)
		} else if c.free = c.m.arena.Carve(c.free, LocalListCap); len(c.free) == 0 {
			// Last resort: nodes this thread retired below the threshold
			// may be free already.
			if len(c.retired) > 0 {
				c.Scan()
			}
			if len(c.free) == 0 {
				return word.Nil
			}
		}
	}
	last := len(c.free) - 1
	idx := c.free[last]
	c.free = c.free[:last]
	n := c.m.arena.NodeAt(idx)
	n.Next.Store(word.Nil)
	n.Aux = 0
	n.Val = 0
	n.Key = 0
	c.allocs++
	return word.MakeNode(idx, 0)
}

// Retire hands a node back once it has been unlinked from every shared
// structure. The node is not reusable until a hazard scan proves no
// thread still protects it.
func (c *Cache) Retire(ref uint64) {
	c.retired = append(c.retired, word.NodeIndex(ref))
	c.frees++
	if len(c.retired) >= DefaultRetireThreshold {
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

// pushFree appends to the loaded list. A full loaded list becomes the
// spare, and the spare goes to the global stack first only if it is full
// too (§6's spill at LocalListCap, one list later).
func (c *Cache) pushFree(idx uint64) {
	if len(c.free) == LocalListCap {
		if len(c.spare) == LocalListCap {
			c.spill(&c.spare)
		}
		c.free, c.spare = c.spare, c.free
	}
	c.free = append(c.free, idx)
}

// spill publishes a copy of the list *l on the global stack and empties
// *l.
func (c *Cache) spill(l *[]uint64) {
	c.m.pushGlobal(slices.Clone(*l))
	*l = (*l)[:0]
}

// Flush force-scans until the retire list is empty or stops shrinking,
// then publishes both free lists on the global stack. Used at thread
// shutdown so another thread can reuse the memory.
func (c *Cache) Flush() {
	for prev := -1; len(c.retired) > 0 && len(c.retired) != prev; {
		prev = len(c.retired)
		c.Scan()
	}
	for _, l := range [...]*[]uint64{&c.free, &c.spare} {
		if len(*l) > 0 {
			c.spill(l)
		}
	}
}

// LocalFree and LocalRetired expose list lengths for tests; LocalFree
// counts both free lists.
func (c *Cache) LocalFree() int    { return len(c.free) + len(c.spare) }
func (c *Cache) LocalRetired() int { return len(c.retired) }
