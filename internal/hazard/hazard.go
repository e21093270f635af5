// Package hazard implements Michael-style hazard pointers [17], the
// memory-reclamation scheme the paper's case-study objects and DCAS use.
//
// A Domain owns one fixed-size record of hazard slots per thread. A slot
// protects an *index* (node index or descriptor index): protecting by
// index rather than full reference means tag/mark variants of the same
// object are all covered by one slot.
//
// Reclamation itself (retire lists, scanning, free lists) lives with the
// owners of the memory: package mm for nodes and package kcas for
// descriptors. This package only answers "is index i protected by any
// thread right now?" via Snapshot.
package hazard

import (
	"sort"
	"sync/atomic"

	"repro/internal/pad"
)

// Record is the per-thread hazard-pointer record.
type Record struct {
	slots []atomic.Uint64
	_     pad.Line
}

// Domain is a set of hazard-pointer records, one per thread, each with a
// fixed number of slots.
type Domain struct {
	slotsPer int
	records  []Record
}

// New creates a domain for maxThreads threads with slotsPer hazard slots
// each.
func New(maxThreads, slotsPer int) *Domain {
	d := &Domain{slotsPer: slotsPer, records: make([]Record, maxThreads)}
	for i := range d.records {
		d.records[i].slots = make([]atomic.Uint64, slotsPer)
	}
	return d
}

// SlotsPerThread returns the number of slots each thread owns.
func (d *Domain) SlotsPerThread() int { return d.slotsPer }

// MaxThreads returns the number of thread records in the domain.
func (d *Domain) MaxThreads() int { return len(d.records) }

// Protect publishes index idx in the given slot of thread tid. idx 0
// clears the slot. The store is sequentially consistent, which gives the
// store-load ordering hazard pointers require between publishing the
// hazard and re-validating the source.
func (d *Domain) Protect(tid, slot int, idx uint64) {
	d.records[tid].slots[slot].Store(idx)
}

// Clear removes any protection in the given slot.
func (d *Domain) Clear(tid, slot int) {
	d.records[tid].slots[slot].Store(0)
}

// Get returns the index currently protected in the slot (for tests).
func (d *Domain) Get(tid, slot int) uint64 {
	return d.records[tid].slots[slot].Load()
}

// Snapshot appends every currently protected index to buf, sorts the
// result and returns it. Callers reuse buf across scans to stay
// allocation-free.
func (d *Domain) Snapshot(buf []uint64) []uint64 {
	buf = buf[:0]
	for t := range d.records {
		for s := range d.records[t].slots {
			if v := d.records[t].slots[s].Load(); v != 0 {
				buf = append(buf, v)
			}
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

// Protected reports whether idx appears in a sorted snapshot.
func Protected(snapshot []uint64, idx uint64) bool {
	i := sort.Search(len(snapshot), func(i int) bool { return snapshot[i] >= idx })
	return i < len(snapshot) && snapshot[i] == idx
}
