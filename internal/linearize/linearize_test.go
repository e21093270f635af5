package linearize

import "testing"

// h builds an op with explicit timestamps.
func h(th int, name string, arg, ret uint64, ok bool, inv, retTS int64) Op {
	return Op{Thread: th, Name: name, Arg: arg, Ret: ret, RetOK: ok, Invoke: inv, Return: retTS}
}

func queuePair() Objects { return Objects{Kinds: []Kind{FIFO, FIFO}} }

func TestEmptyHistory(t *testing.T) {
	if !Check(queuePair(), nil) {
		t.Fatal("empty history must be linearizable")
	}
}

func TestSequentialHistoryAccepted(t *testing.T) {
	hist := []Op{
		h(0, "insA", 1, 0, true, 1, 2),
		h(0, "insA", 2, 0, true, 3, 4),
		h(0, "remA", 0, 1, true, 5, 6),
		h(0, "moveAB", 0, 2, true, 7, 8),
		h(0, "remB", 0, 2, true, 9, 10),
		h(0, "remA", 0, 0, false, 11, 12),
	}
	if !Check(queuePair(), hist) {
		t.Fatal("legal sequential history rejected")
	}
}

func TestWrongValueRejected(t *testing.T) {
	hist := []Op{
		h(0, "insA", 1, 0, true, 1, 2),
		h(0, "remA", 0, 9, true, 3, 4), // dequeued a value never enqueued
	}
	if Check(queuePair(), hist) {
		t.Fatal("history with fabricated value accepted")
	}
}

func TestFIFOOrderEnforced(t *testing.T) {
	hist := []Op{
		h(0, "insA", 1, 0, true, 1, 2),
		h(0, "insA", 2, 0, true, 3, 4),
		h(0, "remA", 0, 2, true, 5, 6), // LIFO order out of a queue
	}
	if Check(queuePair(), hist) {
		t.Fatal("queue model accepted LIFO removal")
	}
	lifo := Objects{Kinds: []Kind{LIFO, LIFO}}
	if !Check(lifo, hist2(hist)) {
		t.Fatal("stack model should accept LIFO removal")
	}
}

// hist2 renames nothing; it exists to reuse the ops above for the stack
// model.
func hist2(hs []Op) []Op { return hs }

func TestConcurrentReorderingAllowed(t *testing.T) {
	// Figure 1a/1b of the paper: operations C and D overlap, so the
	// dequeue may return either insertion order.
	hist := []Op{
		h(0, "insA", 1, 0, true, 1, 10), // overlaps the second insert
		h(1, "insA", 2, 0, true, 2, 9),
		h(0, "remA", 0, 2, true, 11, 12), // 2 first is fine: inserts overlapped
	}
	if !Check(queuePair(), hist) {
		t.Fatal("overlapping inserts must allow either order")
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// Non-overlapping inserts fix the order.
	hist := []Op{
		h(0, "insA", 1, 0, true, 1, 2),
		h(1, "insA", 2, 0, true, 3, 4), // strictly after the first
		h(0, "remA", 0, 2, true, 5, 6),
	}
	if Check(queuePair(), hist) {
		t.Fatal("real-time order violated but history accepted")
	}
}

func TestFigure1cNaiveMoveRejected(t *testing.T) {
	// One element in A; a "move" recorded as atomic, but two sequential
	// probes observed the element in neither container — only possible
	// if the move has an intermediate state (Figure 1c).
	hist := []Op{
		h(0, "moveAB", 0, 42, true, 1, 100), // spans both probes
		h(1, "remA", 0, 0, false, 10, 20),   // A looked empty
		h(1, "remB", 0, 0, false, 30, 40),   // then B looked empty too
		h(1, "remB", 0, 42, true, 110, 120), // element surfaced later
	}
	m := Objects{Kinds: []Kind{FIFO, FIFO}, Initial: [][]Elem{{{Val: 42}}}}
	if Check(m, hist) {
		t.Fatal("Figure 1c history must not be linearizable")
	}
}

func TestFigure1dAtomicMoveAccepted(t *testing.T) {
	// Same probes, but now the second probe finds the element in B —
	// consistent with a single linearization point between the probes.
	hist := []Op{
		h(0, "moveAB", 0, 42, true, 1, 100),
		h(1, "remA", 0, 0, false, 10, 20),
		h(1, "remB", 0, 42, true, 30, 40),
	}
	m := Objects{Kinds: []Kind{FIFO, FIFO}, Initial: [][]Elem{{{Val: 42}}}}
	if !Check(m, hist) {
		t.Fatal("Figure 1d history must be linearizable")
	}
}

func TestMoveFromEmpty(t *testing.T) {
	hist := []Op{
		h(0, "moveAB", 0, 0, false, 1, 2),
		h(0, "insA", 7, 0, true, 3, 4),
		h(0, "moveAB", 0, 7, true, 5, 6),
		h(0, "remB", 0, 7, true, 7, 8),
	}
	if !Check(queuePair(), hist) {
		t.Fatal("failed move from empty must be linearizable as a no-op")
	}
}

func TestDuplicateDeliveryRejected(t *testing.T) {
	// The same element removed from both containers: a duplicated move.
	hist := []Op{
		h(0, "moveAB", 0, 42, true, 1, 4),
		h(1, "remA", 0, 42, true, 5, 6),
		h(1, "remB", 0, 42, true, 7, 8),
	}
	m := Objects{Kinds: []Kind{FIFO, FIFO}, Initial: [][]Elem{{{Val: 42}}}}
	if Check(m, hist) {
		t.Fatal("duplicated element accepted")
	}
}

func TestInitialStateRespected(t *testing.T) {
	m := Objects{Kinds: []Kind{FIFO, FIFO}, Initial: [][]Elem{{{Val: 5}}, {{Val: 6}}}}
	hist := []Op{
		h(0, "remA", 0, 5, true, 1, 2),
		h(0, "remB", 0, 6, true, 3, 4),
	}
	if !Check(m, hist) {
		t.Fatal("initial contents not honored")
	}
}

func TestTooLongHistoryPanics(t *testing.T) {
	long := make([]Op, MaxOps+1)
	for i := range long {
		long[i] = h(0, "insA", 1, 0, true, int64(2*i), int64(2*i+1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Check(queuePair(), long)
}

func TestUnknownOpRejected(t *testing.T) {
	hist := []Op{h(0, "fly", 0, 0, true, 1, 2)}
	if Check(queuePair(), hist) {
		t.Fatal("unknown operation accepted")
	}
}

func TestOpString(t *testing.T) {
	if h(1, "insA", 2, 3, true, 4, 5).String() == "" {
		t.Fatal("Op.String must render")
	}
	if PopCount(0b1011) != 3 {
		t.Fatal("PopCount")
	}
}
