package integration

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hashmap"
)

// FuzzTransferSharedBucket drives TransferN between two maps that start
// at one bucket per shard, so the keys of a transfer often share a
// bucket on both sides, while a racer grows both maps and inserts keys
// of its own. The engine is the only guard: a transfer whose inserts
// would link two nodes into one gap fails, changing nothing. Each input
// is a list of transfers: a header byte picks the direction and 1..4
// key pairs, and one byte per key picks it among the keys 1..16 — or,
// with its top bit set, picks the next key in the bucket of the list's
// previous key, so both sides often share buckets. After
// every transfer the token keys of both maps must match a model that
// applies exactly the transfers that returned true, and a successful
// transfer must return the model's values: no panic, a failed transfer
// changes nothing, and tokens are conserved.
func FuzzTransferSharedBucket(f *testing.F) {
	for _, seed := range [][]byte{
		{0x02, 1, 0x80, 9, 0x80},               // two pairs, bucket-mates on both sides
		{0x02, 1, 2, 9, 10, 0x03, 9, 10, 3, 4}, // out and back under new keys
		{0x04, 1, 0x80, 0x80, 9, 0x80, 0x80},   // three pairs, all bucket-mates
		{0x06, 2, 0x80, 0x80, 0x80, 9, 0x80, 0x80, 0x80, 0x07, 9, 0x80, 0x80, 0x80, 1, 0x80, 0x80, 0x80}, // four pairs each way
		{0x02, 1, 1, 2, 3}, // a repeated key is skipped: misuse, not data
		{0x02, 1, 0x80, 9, 10, 0x02, 3, 0x80, 11, 0x80, 0x03, 9, 0x80, 12, 0x80, 0x00, 5, 13}, // a mix
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const keys, tokens = 16, 8 // tokens start at keys 1..8 of map 0; the racer's keys lie above
		rt := core.NewRuntime(core.Config{MaxThreads: 3, ArenaCapacity: 1 << 12})
		setup := rt.RegisterThread()
		maps := [2]*hashmap.Map{hashmap.NewSharded(setup, 2, 1, 2), hashmap.NewSharded(setup, 2, 1, 2)}
		model := [2]map[uint64]uint64{{}, {}}
		for k := uint64(1); k <= tokens; k++ {
			maps[0].Insert(setup, k, k*31)
			model[0][k] = k * 31
		}
		// check compares both maps' token keys with the model.
		check := func(th *core.Thread, what string) {
			for side, m := range maps {
				for k := uint64(1); k <= keys; k++ {
					v, ok := m.Contains(th, k)
					want, wantOK := model[side][k]
					if ok != wantOK || v != want {
						t.Fatalf("%s: map %d key %d = %d,%v, model says %d,%v", what, side, k, v, ok, want, wantOK)
					}
				}
			}
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		racer := rt.RegisterThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); !stop.Load() && i < 256; i++ {
				maps[i&1].Insert(racer, 1000+i, i)
				if i%8 == 0 {
					maps[0].Grow(racer)
					maps[1].Grow(racer)
				}
				runtime.Gosched()
			}
		}()
		defer func() { stop.Store(true); wg.Wait() }()

		th := rt.RegisterThread()
		var skeys, tkeys []uint64
		for ops := 0; len(data) > 0 && ops < 16; ops++ {
			h := data[0]
			data = data[1:]
			from, k := int(h&1), 1+int(h>>1)%4
			if len(data) < 2*k {
				break
			}
			skeys = pickKeys(maps[from], skeys[:0], data[:k], keys)
			tkeys = pickKeys(maps[1-from], tkeys[:0], data[k:2*k], keys)
			data = data[2*k:]
			if repeated(skeys) || repeated(tkeys) {
				continue
			}
			src, dst := model[from], model[1-from]
			vals, ok := th.TransferN(maps[from], maps[1-from], skeys, tkeys)
			if ok {
				for i, sk := range skeys {
					if want, in := src[sk]; !in || vals[i] != want {
						t.Fatalf("TransferN %v→%v returned %v for key %d, model holds %d,%v", skeys, tkeys, vals, sk, want, in)
					}
					delete(src, sk)
				}
				for i, tk := range tkeys {
					if _, occupied := dst[tk]; occupied {
						t.Fatalf("TransferN %v→%v succeeded onto occupied key %d", skeys, tkeys, tk)
					}
					dst[tk] = vals[i]
				}
			}
			check(th, "after a transfer")
		}
		stop.Store(true)
		wg.Wait()
		maps[0].Quiesce(setup)
		maps[1].Quiesce(setup)
		check(setup, "at the end")
		var all []uint64
		for _, m := range model {
			for _, v := range m {
				all = append(all, v)
			}
		}
		slices.Sort(all)
		for i, v := range all {
			if v != uint64(i+1)*31 {
				t.Fatalf("tokens %v are not 31..%d", all, tokens*31)
			}
		}
	})
}

// pickKeys appends one key in 1..n per byte of in to dst: the byte's
// value modulo n, or, with its top bit set, the first key after the
// previous one (cyclically) not yet in dst that m's current directory
// puts in the previous key's bucket — or, when there is none, the first
// key not yet in dst.
func pickKeys(m *hashmap.Map, dst []uint64, in []byte, n uint64) []uint64 {
	for _, b := range in {
		k := 1 + uint64(b)%n
		if prev := len(dst) - 1; b&0x80 != 0 && prev >= 0 {
			k = 0
			for i, c := uint64(0), dst[prev]; i < n; i++ {
				if c = c%n + 1; slices.Contains(dst, c) {
					continue
				}
				if m.SameChain(dst[prev], c) {
					k = c
					break
				}
				if k == 0 {
					k = c
				}
			}
		}
		dst = append(dst, k)
	}
	return dst
}

// repeated reports whether some key occurs twice in keys.
func repeated(keys []uint64) bool {
	for i := range keys {
		if slices.Contains(keys[:i], keys[i]) {
			return true
		}
	}
	return false
}
