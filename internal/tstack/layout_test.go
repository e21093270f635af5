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
	if unsafe.Offsetof(s.id)/pad.CacheLineSize == unsafe.Offsetof(s.top)/pad.CacheLineSize {
		t.Error("Stack.id shares a line with the top word")
	}
}
