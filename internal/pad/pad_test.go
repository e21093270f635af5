package pad

import (
	"testing"
	"unsafe"
)

func TestSizes(t *testing.T) {
	if unsafe.Sizeof(Line{}) != CacheLineSize {
		t.Fatalf("Line is %d bytes", unsafe.Sizeof(Line{}))
	}
	type one struct {
		v uint64
		_ Pad56
	}
	if unsafe.Sizeof(one{}) != CacheLineSize {
		t.Fatalf("uint64+Pad56 is %d bytes", unsafe.Sizeof(one{}))
	}
}
