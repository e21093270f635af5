package kcas

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// TestPoolLayout: the slab table every descriptor dereference reads must
// not share a line with the allocator cursor and the helping counters.
func TestPoolLayout(t *testing.T) {
	var p Pool
	if size := unsafe.Sizeof(p); size%pad.CacheLineSize != 0 {
		t.Errorf("Pool is %d bytes, not a whole number of lines", size)
	}
	read := unsafe.Offsetof(p.slabs) / pad.CacheLineSize
	if last := (unsafe.Offsetof(p.dom) + unsafe.Sizeof(p.dom) - 1) / pad.CacheLineSize; last != read {
		t.Errorf("Pool header spans lines %d..%d, want one", read, last)
	}
	for name, off := range map[string]uintptr{
		"growMu": unsafe.Offsetof(p.growMu), "next": unsafe.Offsetof(p.next),
		"helps": unsafe.Offsetof(p.helps), "khelps": unsafe.Offsetof(p.khelps),
		"strayCleanups": unsafe.Offsetof(p.strayCleanups), "lateP2": unsafe.Offsetof(p.lateP2),
	} {
		if off/pad.CacheLineSize == read {
			t.Errorf("Pool.%s shares the slab table's line", name)
		}
	}
}
