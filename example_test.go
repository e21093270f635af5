package repro_test

import (
	"fmt"

	"repro"
)

// ExampleMove demonstrates the paper's core contribution: an atomic,
// lock-free move between two different container types.
func ExampleMove() {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	s := repro.NewStack(th)

	q.Enqueue(th, 42)
	v, ok := repro.Move(th, q, s, 0, 0)
	fmt.Println(v, ok)
	fmt.Println(q.Len(th), s.Len(th))
	// Output:
	// 42 true
	// 0 1
}

// ExampleMove_keyed moves an entry out of a hash map into an ordered
// set, selecting it by key and re-keying it at the target.
func ExampleMove_keyed() {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 8)
	l := repro.NewList(th)

	m.Insert(th, 7, 700)
	v, ok := repro.Move(th, m, l, 7, 3) // m[7] → l[3]
	fmt.Println(v, ok)
	got, found := l.Contains(th, 3)
	fmt.Println(got, found)
	// Output:
	// 700 true
	// 700 true
}

// ExampleMoveN fans one element out into several containers atomically
// (the paper's §8 extension).
func ExampleMoveN() {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	src := repro.NewQueue(th)
	a := repro.NewStack(th)
	b := repro.NewQueue(th)

	src.Enqueue(th, 9)
	v, ok := repro.MoveN(th, src, []repro.Inserter{a, b}, 0, []uint64{0, 0})
	fmt.Println(v, ok)
	fmt.Println(a.Len(th), b.Len(th))
	// Output:
	// 9 true
	// 1 1
}

// ExampleTransferKeys moves several keyed entries between two hash
// maps in one k-word CAS: all of them move, or none do.
func ExampleTransferKeys() {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	src := repro.NewHashMap(th, 8)
	dst := repro.NewHashMap(th, 8)

	src.Insert(th, 1, 100)
	src.Insert(th, 2, 200)
	vals, ok := repro.TransferKeys(th, src, dst, []uint64{1, 2}, []uint64{10, 20})
	fmt.Println(vals, ok)
	fmt.Println(src.Len(th), dst.Len(th))

	// A missing source key fails the whole transfer; nothing moves.
	_, ok = repro.TransferKeys(th, dst, src, []uint64{10, 99}, []uint64{1, 2})
	fmt.Println(ok, dst.Len(th))
	// Output:
	// [100 200] true
	// 0 2
	// false 2
}

// ExampleDrainN streams elements from one queue into another, one Move
// at a time. Each element's move is its own atomic operation (a
// pipeline, not a transaction), and the drain stops early when the
// source runs dry.
func ExampleDrainN() {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	src := repro.NewQueue(th)
	dst := repro.NewQueue(th)

	for v := uint64(1); v <= 3; v++ {
		src.Enqueue(th, v)
	}
	moved := repro.DrainN(th, src, dst, 0, 0, 5) // asks for 5, gets 3
	fmt.Println(moved)
	fmt.Println(src.Len(th), dst.Len(th))
	// Output:
	// [1 2 3]
	// 0 3
}

// ExampleMoveTyped shows the generics layer: moving a Go struct between
// typed containers backed by one Box.
func ExampleMoveTyped() {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	box := repro.NewBox[string]()
	q := repro.NewQueueOf[string](th, box)
	s := repro.NewStackOf[string](th, box)

	q.Enqueue(th, "payload")
	v, ok := repro.MoveTyped(th, q, s)
	fmt.Println(v, ok)
	got, _ := s.Pop(th)
	fmt.Println(got)
	// Output:
	// payload true
	// payload
}
