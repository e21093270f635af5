package linearize

import "testing"

func kv(k, v uint64) uint64 { return k<<32 | v }

// TestMapPairModelSequential checks the oracle on two keyed containers
// with hand-written histories before the integration tests rely on it.
func TestMapPairModelSequential(t *testing.T) {
	m := Objects{Kinds: []Kind{Keyed, Keyed}, Initial: [][]Elem{{{1, 10}}}}
	legal := []Op{
		{Name: "getA", Arg: 1, Ret: 10, RetOK: true, Invoke: 1, Return: 2},
		{Name: "insA", Arg: kv(2, 20), RetOK: true, Invoke: 3, Return: 4},
		{Name: "insA", Arg: kv(2, 99), RetOK: false, Invoke: 5, Return: 6},
		{Name: "moveAB", Arg: kv(2, 7), Ret: 20, RetOK: true, Invoke: 7, Return: 8},
		{Name: "getB", Arg: 7, Ret: 20, RetOK: true, Invoke: 9, Return: 10},
		{Name: "remA", Arg: 1, Ret: 10, RetOK: true, Invoke: 11, Return: 12},
		{Name: "remA", Arg: 1, RetOK: false, Invoke: 13, Return: 14},
		{Name: "moveBA", Arg: kv(9, 9), RetOK: false, Invoke: 15, Return: 16},
	}
	if !Check(m, legal) {
		t.Fatal("legal sequential map history rejected")
	}

	for name, hist := range map[string][]Op{
		"get of moved key": {
			{Name: "moveAB", Arg: kv(1, 1), Ret: 10, RetOK: true, Invoke: 1, Return: 2},
			{Name: "getA", Arg: 1, Ret: 10, RetOK: true, Invoke: 3, Return: 4},
		},
		"duplicate put succeeded": {
			{Name: "insA", Arg: kv(1, 5), RetOK: true, Invoke: 1, Return: 2},
		},
		"move returned wrong value": {
			{Name: "moveAB", Arg: kv(1, 1), Ret: 99, RetOK: true, Invoke: 1, Return: 2},
		},
		"move onto occupied target": {
			{Name: "insB", Arg: kv(3, 30), RetOK: true, Invoke: 1, Return: 2},
			{Name: "moveAB", Arg: kv(1, 3), Ret: 10, RetOK: true, Invoke: 3, Return: 4},
		},
		"value duplicated by move": {
			{Name: "moveAB", Arg: kv(1, 1), Ret: 10, RetOK: true, Invoke: 1, Return: 2},
			{Name: "getB", Arg: 1, Ret: 10, RetOK: true, Invoke: 3, Return: 4},
			{Name: "getA", Arg: 1, Ret: 10, RetOK: true, Invoke: 5, Return: 6},
		},
	} {
		if Check(m, hist) {
			t.Fatalf("%s: illegal history accepted", name)
		}
	}
}

// TestMapPairModelConcurrentOverlap: overlapping ops may linearize in
// either order.
func TestMapPairModelConcurrentOverlap(t *testing.T) {
	m := Objects{Kinds: []Kind{Keyed, Keyed}, Initial: [][]Elem{{{1, 10}}}}
	// A concurrent get may see the state before or after the move; both
	// observed outcomes must be accepted when intervals overlap.
	hist := []Op{
		{Thread: 0, Name: "moveAB", Arg: kv(1, 1), Ret: 10, RetOK: true, Invoke: 1, Return: 6},
		{Thread: 1, Name: "getA", Arg: 1, Ret: 10, RetOK: true, Invoke: 2, Return: 5},
	}
	if !Check(m, hist) {
		t.Fatal("pre-move observation within overlap rejected")
	}
	hist[1] = Op{Thread: 1, Name: "getA", Arg: 1, RetOK: false, Invoke: 2, Return: 5}
	if !Check(m, hist) {
		t.Fatal("post-move observation within overlap rejected")
	}
	// But once the get strictly follows the move's return, only the
	// post-move outcome is legal.
	hist[1] = Op{Thread: 1, Name: "getA", Arg: 1, Ret: 10, RetOK: true, Invoke: 7, Return: 8}
	if Check(m, hist) {
		t.Fatal("stale observation after move's return accepted")
	}
}

// TestMixedKinds: a priority queue gives up an element of its least key,
// any one of them on a tie; a move between an unkeyed and a keyed
// container takes the key of the keyed side; MoveN fails when either
// target refuses; a failed transfer is a no-op and a successful one
// moves both keys in one step.
func TestMixedKinds(t *testing.T) {
	m := Objects{Kinds: []Kind{Priority, Keyed, FIFO}, Initial: [][]Elem{{{2, 20}, {1, 11}, {1, 12}}, {{5, 50}}}}
	for name, c := range map[string]struct {
		hist  []Op
		legal bool
	}{
		"either tie first": {[]Op{
			{Name: "remA", Ret: 12, RetOK: true, Invoke: 1, Return: 2},
			{Name: "remA", Ret: 11, RetOK: true, Invoke: 3, Return: 4},
			{Name: "remA", Ret: 20, RetOK: true, Invoke: 5, Return: 6},
		}, true},
		"priority order": {[]Op{{Name: "remA", Ret: 20, RetOK: true, Invoke: 1, Return: 2}}, false},
		"keyed from unkeyed": {[]Op{
			{Name: "moveCB", Arg: kv(0, 7), RetOK: false, Invoke: 1, Return: 2},
			{Name: "moveAB", Arg: kv(0, 7), Ret: 11, RetOK: true, Invoke: 3, Return: 4},
			{Name: "moveBC", Arg: kv(7, 0), Ret: 11, RetOK: true, Invoke: 5, Return: 6},
			{Name: "remC", Ret: 11, RetOK: true, Invoke: 7, Return: 8},
		}, true},
		"fan into a present key": {[]Op{{Name: "fanACB", Arg: 5, Ret: 11, RetOK: true, Invoke: 1, Return: 2}}, false},
		"fan refused": {[]Op{
			{Name: "fanACB", Arg: 5, RetOK: false, Invoke: 1, Return: 2},
			{Name: "fanACB", Arg: 6, Ret: 12, RetOK: true, Invoke: 3, Return: 4},
			{Name: "getB", Arg: 6, Ret: 12, RetOK: true, Invoke: 5, Return: 6},
			{Name: "remC", Ret: 12, RetOK: true, Invoke: 7, Return: 8},
		}, true},
		"transfer": {[]Op{
			{Name: "xferBA", Arg: 5<<48 | 9<<32 | 6<<16 | 8, RetOK: false, Invoke: 1, Return: 2},
			{Name: "insB", Arg: kv(6, 60), RetOK: true, Invoke: 3, Return: 4},
			{Name: "xferBA", Arg: 5<<48 | 0<<32 | 6<<16 | 3, Ret: 50<<32 | 60, RetOK: true, Invoke: 5, Return: 6},
			{Name: "remA", Ret: 50, RetOK: true, Invoke: 7, Return: 8},
			{Name: "getB", Arg: 6, RetOK: false, Invoke: 9, Return: 10},
		}, true},
		"half a transfer": {[]Op{
			{Name: "xferBA", Arg: 5<<48 | 0<<32 | 6<<16 | 3, Ret: 50<<32 | 60, RetOK: true, Invoke: 1, Return: 2},
		}, false},
	} {
		if Check(m, c.hist) != c.legal {
			t.Errorf("%s: Check = %v, want %v", name, !c.legal, c.legal)
		}
	}
}
