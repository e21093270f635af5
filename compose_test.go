package repro_test

import (
	"slices"
	"sync"
	"testing"

	"repro"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 4})
	th := rt.RegisterThread()

	q := repro.NewQueue(th)
	s := repro.NewStack(th)
	l := repro.NewList(th)
	m := repro.NewHashMap(th, 8)

	q.Enqueue(th, 1)
	s.Push(th, 2)
	l.Insert(th, 4, 40)
	m.Insert(th, 5, 50)

	// A chain of moves across all four container types.
	if v, ok := repro.Move(th, q, s, 0, 0); !ok || v != 1 {
		t.Fatalf("queue→stack: %d,%v", v, ok)
	}
	if v, ok := repro.Move(th, s, l, 0, 9); !ok || v != 1 {
		t.Fatalf("stack→list: %d,%v", v, ok)
	}
	if v, ok := repro.Move(th, l, m, 9, 99); !ok || v != 1 {
		t.Fatalf("list→map: %d,%v", v, ok)
	}
	if v, ok := repro.Move(th, m, q, 99, 0); !ok || v != 1 {
		t.Fatalf("map→queue: %d,%v", v, ok)
	}
	if v, ok := q.Dequeue(th); !ok || v != 1 {
		t.Fatalf("element lost in the chain: %d,%v", v, ok)
	}

	// The other residents were untouched.
	if v, _ := s.Pop(th); v != 2 {
		t.Fatal("stack disturbed")
	}
	if v, _ := l.Contains(th, 4); v != 40 {
		t.Fatal("list disturbed")
	}
	if v, _ := m.Contains(th, 5); v != 50 {
		t.Fatal("map disturbed")
	}
}

func TestPublicMoveN(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	a := repro.NewStack(th)
	b := repro.NewHashMap(th, 4)
	q.Enqueue(th, 7)
	if v, ok := repro.MoveN(th, q, []repro.Inserter{a, b}, 0, []uint64{0, 70}); !ok || v != 7 {
		t.Fatalf("MoveN: %d,%v", v, ok)
	}
	if v, _ := a.Pop(th); v != 7 {
		t.Fatal("stack missing fanout copy")
	}
	if v, _ := b.Contains(th, 70); v != 7 {
		t.Fatal("map missing fanout copy")
	}
}

func TestPublicConcurrentSmoke(t *testing.T) {
	const workers = 4
	rt := repro.NewRuntime(repro.Config{MaxThreads: workers + 1})
	setup := rt.RegisterThread()
	q := repro.NewQueue(setup)
	s := repro.NewStack(setup)
	for i := uint64(1); i <= 100; i++ {
		q.Enqueue(setup, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < 2000; i++ {
				if i%2 == w%2 {
					repro.Move(th, q, s, 0, 0)
				} else {
					repro.Move(th, s, q, 0, 0)
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	total := q.Len(setup) + s.Len(setup)
	if total != 100 {
		t.Fatalf("conservation across public API: %d", total)
	}
}

// independentKey returns the smallest key above first that shares a
// bucket with first in none of maps, so that {first, key} are target
// keys no two inserts of one transfer into any of maps link into one
// gap.
func independentKey(first uint64, maps ...*repro.HashMap) uint64 {
	for k := first + 1; ; k++ {
		if !slices.ContainsFunc(maps, func(m *repro.HashMap) bool { return m.SameChain(first, k) }) {
			return k
		}
	}
}

// TestTransferKeysResultLifetime pins the rule TransferKeys documents:
// the result is the thread's own storage, which the thread's other
// operations and other threads' transfers leave alone and only the
// thread's next TransferKeys reuses, so a caller copies it to keep it.
func TestTransferKeysResultLifetime(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th, other := rt.RegisterThread(), rt.RegisterThread()
	a, b := repro.NewHashMap(th, 64), repro.NewHashMap(th, 64)
	c, d := repro.NewHashMap(th, 64), repro.NewHashMap(th, 64)
	keys := []uint64{1, independentKey(1, b, c, d)}
	for _, key := range keys {
		a.Insert(th, key, key*10)
		c.Insert(th, key, key*100)
	}
	vals, ok := repro.TransferKeys(th, a, b, keys, keys)
	want := []uint64{keys[0] * 10, keys[1] * 10}
	if !ok || !slices.Equal(vals, want) {
		t.Fatalf("TransferKeys = %v,%v, want %v,true", vals, ok, want)
	}

	if v, ok := repro.Move(th, b, a, keys[0], keys[0]); !ok || v != want[0] {
		t.Fatalf("Move = %d,%v, want %d,true", v, ok, want[0])
	}
	b.Insert(th, 99, 990)
	b.Contains(th, keys[1])
	if vs, ok := repro.TransferKeys(other, c, d, keys, keys); !ok || vs[0] != 100 {
		t.Fatalf("the other thread's TransferKeys = %v,%v", vs, ok)
	}
	if !slices.Equal(vals, want) {
		t.Fatalf("result changed to %v by Move, Insert, Contains and another thread's transfer, want %v", vals, want)
	}

	kept := slices.Clone(vals)
	next, ok := repro.TransferKeys(th, d, c, keys, keys)
	if !ok || &next[0] != &vals[0] || vals[0] != 100 {
		t.Fatalf("the thread's next TransferKeys = %v,%v: want it to reuse the earlier result's storage", next, ok)
	}
	if !slices.Equal(kept, want) {
		t.Fatalf("the copy of the earlier result changed to %v, want %v", kept, want)
	}
}

// TestTransferKeysMisusePanics: a malformed transfer panics with
// TransferN's message before the chain runs — a key repeated within a
// slice is misuse, not a word two steps happen to share.
func TestTransferKeysMisusePanics(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	a, b := repro.NewHashMap(th, 64), repro.NewHashMap(th, 64)
	for key := uint64(1); key <= 5; key++ {
		a.Insert(th, key, key*10)
	}
	for _, c := range []struct {
		msg          string
		src, dst     *repro.HashMap
		skeys, tkeys []uint64
	}{
		{"core: TransferN source keys must be pairwise distinct", a, b, []uint64{1, 1}, []uint64{1, 1}},
		{"core: TransferN target keys must be pairwise distinct", a, b, []uint64{1, 2}, []uint64{3, 3}},
		{"core: TransferN needs at least one key pair", a, b, nil, nil},
		{"core: TransferN supports at most kcas.MaxEntries/2 key pairs", a, b, []uint64{1, 2, 3, 4, 5}, []uint64{1, 2, 3, 4, 5}},
		{"core: TransferN needs one target key per source key", a, b, []uint64{1, 2}, []uint64{1}},
		{"core: TransferN requires two distinct objects", a, a, []uint64{1}, []uint64{6}},
	} {
		mustPanic(t, c.msg, func() { repro.TransferKeys(th, c.src, c.dst, c.skeys, c.tkeys) })
	}
	if a.Len(th) != 5 || b.Len(th) != 0 {
		t.Fatalf("a misused transfer changed the maps: %d, %d entries, want 5, 0", a.Len(th), b.Len(th))
	}
}

// TestTransferKeysSourceKeysShareABucket: two source keys of one bucket
// chain transfer, because their removes mark two different nodes; only
// target keys that would be linked into one gap fail a transfer.
func TestTransferKeysSourceKeysShareABucket(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	a, b := repro.NewHashMap(th, 64), repro.NewHashMap(th, 64)
	mate := uint64(2)
	for !a.SameChain(1, mate) {
		mate++
	}
	skeys, tkeys := []uint64{1, mate}, []uint64{1, independentKey(1, b)}
	for _, key := range skeys {
		a.Insert(th, key, key*10)
	}
	vals, ok := repro.TransferKeys(th, a, b, skeys, tkeys)
	if want := []uint64{10, mate * 10}; !ok || !slices.Equal(vals, want) {
		t.Fatalf("TransferKeys of bucket-mates %v = %v,%v, want %v,true", skeys, vals, ok, want)
	}
	for i, key := range tkeys {
		if v, ok := b.Contains(th, key); !ok || v != vals[i] {
			t.Fatalf("b[%d] = %d,%v, want %d,true", key, v, ok, vals[i])
		}
	}
	if a.Len(th) != 0 {
		t.Fatalf("a keeps %d entries, want 0", a.Len(th))
	}
}

// mustPanic fails the test unless f panics with exactly msg.
func mustPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != msg {
			t.Fatalf("panic %v, want %q", r, msg)
		}
	}()
	f()
}

// TestTransferKeysFailureChangesNothing: two keyed values cross between
// maps in one step and come back in key order; a transfer with an
// absent source key or an occupied target key changes neither map.
func TestTransferKeysFailureChangesNothing(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	hot, cold := repro.NewHashMap(th, 64), repro.NewHashMap(th, 64)
	for _, k := range []uint64{1, 2, 3} {
		hot.Insert(th, k, k*10)
	}
	cold.Insert(th, 30, 300)
	for _, fail := range [][2][]uint64{
		{{1, 9}, {10, 20}}, // 9 is absent from hot
		{{1, 3}, {10, 30}}, // 30 is occupied in cold
	} {
		if cold.SameChain(fail[1][0], fail[1][1]) {
			t.Fatalf("target keys %v share a bucket; the call could fail for that alone", fail[1])
		}
		if vs, ok := repro.TransferKeys(th, hot, cold, fail[0], fail[1]); ok || vs != nil {
			t.Fatalf("TransferKeys%v = %v,%v, want nil,false", fail, vs, ok)
		}
		if hot.Len(th) != 3 || cold.Len(th) != 1 {
			t.Fatalf("failed TransferKeys%v left %d/%d entries, want 3/1", fail, hot.Len(th), cold.Len(th))
		}
	}
	if vs, ok := repro.TransferKeys(th, hot, cold, []uint64{1, 2}, []uint64{10, 20}); !ok || !slices.Equal(vs, []uint64{10, 20}) {
		t.Fatalf("TransferKeys = %v,%v, want [10 20],true", vs, ok)
	}
	if v, ok := hot.Contains(th, 3); !ok || v != 30 || hot.Len(th) != 1 {
		t.Fatalf("hot[3] = %d,%v with %d entries, want 30 alone", v, ok, hot.Len(th))
	}
	for k, want := range map[uint64]uint64{10: 10, 20: 20, 30: 300} {
		if v, ok := cold.Contains(th, k); !ok || v != want {
			t.Fatalf("cold[%d] = %d,%v, want %d", k, v, ok, want)
		}
	}
}

// TestSwapHeads: three stacks rotate their tops (stack i takes stack
// i-1's top); a rotation over an empty stack changes none of them; one
// stack, or a stack named twice, is misuse and panics.
func TestSwapHeads(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	ss := []*repro.Stack{repro.NewStack(th), repro.NewStack(th), repro.NewStack(th), repro.NewStack(th)}
	for i := range 3 {
		ss[i].Push(th, uint64(10+i))
		ss[i].Push(th, uint64(i))
	}
	if !repro.SwapHeads(th, ss[0], ss[1], ss[2]) {
		t.Fatal("SwapHeads over three non-empty stacks failed")
	}
	if repro.SwapHeads(th, ss[0], ss[1], ss[3]) {
		t.Fatal("SwapHeads over an empty stack succeeded")
	}
	for i, want := range []uint64{2, 0, 1, 10, 11, 12} {
		if v, ok := ss[i%3].Pop(th); !ok || v != want {
			t.Fatalf("stack %d pop %d: %d,%v, want %d", i%3, i/3, v, ok, want)
		}
	}
	if _, ok := ss[3].Pop(th); ok {
		t.Fatal("the failed rotation pushed onto the empty stack")
	}
	mustPanic(t, "tstack: SwapHeads needs at least two stacks", func() { repro.SwapHeads(th, ss[0]) })
	mustPanic(t, "tstack: SwapHeads requires pairwise distinct stacks", func() { repro.SwapHeads(th, ss[0], ss[1], ss[0]) })
}

// TestDrainN: a drain moves a queue's values to a stack in FIFO order
// and stops when the queue runs dry; a drain of the empty queue moves
// nothing and changes neither.
func TestDrainN(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	q, s := repro.NewQueue(th), repro.NewStack(th)
	for v := uint64(1); v <= 3; v++ {
		q.Enqueue(th, v)
	}
	if got := repro.DrainN(th, q, s, 0, 0, 5); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("DrainN = %v, want [1 2 3]", got)
	}
	if got := repro.DrainN(th, q, s, 0, 0, 5); len(got) != 0 {
		t.Fatalf("DrainN of an empty queue = %v", got)
	}
	for _, want := range []uint64{3, 2, 1} {
		if v, ok := s.Pop(th); !ok || v != want {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, want)
		}
	}
	if _, ok := s.Pop(th); ok {
		t.Fatal("the empty drain pushed a value")
	}
}
