package hashmap

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// TestLayout pins the coherence budget's layout rule for the map's
// shared structs: whole lines (so the allocator puts them, and the
// elements of the shard and count arrays, on line boundaries), a
// read-mostly header that fits one line, and the words operations write
// on other lines. A count line is exactly one line, so a thread's stripe
// of entry counts shares no line with another thread's.
func TestLayout(t *testing.T) {
	var (
		m Map
		s shard
		d directory
	)
	for _, c := range []struct {
		name        string
		size        uintptr
		first, last uintptr            // the header's first byte and last byte
		written     map[string]uintptr // offsets of the words operations write
	}{
		{"shard", unsafe.Sizeof(s),
			unsafe.Offsetof(s.dir), unsafe.Offsetof(s.dir) + unsafe.Sizeof(s.dir) - 1,
			nil},
		{"countLine", unsafe.Sizeof(countLine{}), 0, 0, nil},
		{"directory", unsafe.Sizeof(d),
			unsafe.Offsetof(d.heads), unsafe.Offsetof(d.mask) + unsafe.Sizeof(d.mask) - 1,
			map[string]uintptr{"scan": unsafe.Offsetof(d.scan)}},
		{"Map", unsafe.Sizeof(m),
			unsafe.Offsetof(m.shards), unsafe.Offsetof(m.growLoad) + unsafe.Sizeof(m.growLoad) - 1,
			map[string]uintptr{"grows": unsafe.Offsetof(m.grows), "sentinels": unsafe.Offsetof(m.sentinels), "steps": unsafe.Offsetof(m.steps)}},
	} {
		if c.size%pad.CacheLineSize != 0 {
			t.Errorf("%s is %d bytes, not a whole number of lines", c.name, c.size)
		}
		header := c.first / pad.CacheLineSize
		if last := c.last / pad.CacheLineSize; last != header {
			t.Errorf("%s header spans lines %d..%d, want one", c.name, header, last)
		}
		for field, off := range c.written {
			if off/pad.CacheLineSize == header {
				t.Errorf("%s.%s shares the header's line", c.name, field)
			}
		}
	}
}
