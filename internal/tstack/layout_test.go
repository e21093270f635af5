package tstack

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// TestStackLayout: the top word, the read-only header and the retry
// counter each get a line.
func TestStackLayout(t *testing.T) {
	var s Stack
	if size := unsafe.Sizeof(s); size%pad.CacheLineSize != 0 {
		t.Errorf("Stack is %d bytes, not a whole number of lines", size)
	}
	top := unsafe.Offsetof(s.top) / pad.CacheLineSize
	retries := unsafe.Offsetof(s.retries) / pad.CacheLineSize
	for name, off := range map[string]uintptr{
		"id": unsafe.Offsetof(s.id), "versioned": unsafe.Offsetof(s.versioned),
	} {
		if l := off / pad.CacheLineSize; l == top || l == retries {
			t.Errorf("Stack.%s shares a line with a written word", name)
		}
	}
	if top == retries {
		t.Error("Stack.top and Stack.retries share a line")
	}
}
