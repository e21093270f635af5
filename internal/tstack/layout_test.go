package tstack

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// TestStackLayout: the top word and the read-only header each get a
// line.
func TestStackLayout(t *testing.T) {
	var s Stack
	if size := unsafe.Sizeof(s); size%pad.CacheLineSize != 0 {
		t.Errorf("Stack is %d bytes, not a whole number of lines", size)
	}
	top := unsafe.Offsetof(s.top) / pad.CacheLineSize
	for name, off := range map[string]uintptr{
		"id": unsafe.Offsetof(s.id), "versioned": unsafe.Offsetof(s.versioned),
	} {
		if l := off / pad.CacheLineSize; l == top {
			t.Errorf("Stack.%s shares a line with the top word", name)
		}
	}
}
