package word

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNilIsNotDesc(t *testing.T) {
	if IsDesc(Nil) {
		t.Fatal("nil must not look like a descriptor")
	}
	if NodeIndex(Nil) != 0 {
		t.Fatal("nil must have node index 0")
	}
}

func TestNodeRoundTrip(t *testing.T) {
	f := func(index, tag uint64) bool {
		index &= MaxNodeIndex
		tag &= MaxNodeTag
		v := MakeNode(index, tag)
		return !IsDesc(v) && NodeIndex(v) == index && NodeTag(v) == tag && !IsListMarked(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeMarkRoundTrip(t *testing.T) {
	f := func(index, tag uint64) bool {
		v := MakeNode(index&MaxNodeIndex, tag&MaxNodeTag)
		m := ListMarked(v)
		return IsListMarked(m) &&
			!IsListMarked(ListUnmarked(m)) &&
			ListUnmarked(m) == v &&
			NodeIndex(m) == NodeIndex(v) &&
			NodeTag(m) == NodeTag(v) &&
			!IsDesc(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescRoundTrip(t *testing.T) {
	f := func(kind, index, seq uint64) bool {
		kind &= 3
		index &= MaxDescIndex
		seq &= (1 << 27) - 1
		v := MakeDesc(kind, index, seq)
		return IsDesc(v) &&
			DescKind(v) == kind &&
			DescIndex(v) == index &&
			DescSeq(v) == seq &&
			DescTID(v) == 0 &&
			!IsMarkedDesc(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescMarking(t *testing.T) {
	f := func(index, seq uint64, tid int) bool {
		index &= MaxDescIndex
		seq &= (1 << 27) - 1
		if tid < 0 {
			tid = -tid
		}
		tid %= MaxThreads
		v := MakeDesc(KindDCAS, index, seq)
		m := MarkDesc(v, tid)
		return IsMarkedDesc(m) &&
			DescTID(m) == uint64(tid+1) &&
			UnmarkDesc(m) == v &&
			SameDesc(m, v) &&
			DescIndex(m) == index &&
			DescSeq(m) == seq &&
			DescKind(m) == KindDCAS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarksOfDifferentThreadsDiffer(t *testing.T) {
	v := MakeDesc(KindDCAS, 5, 9)
	if MarkDesc(v, 0) == MarkDesc(v, 1) {
		t.Fatal("marks of different threads must differ")
	}
	if !SameDesc(MarkDesc(v, 0), MarkDesc(v, 1)) {
		t.Fatal("marks of the same descriptor must compare SameDesc")
	}
}

func TestSameDescDistinguishesSeq(t *testing.T) {
	a := MakeDesc(KindDCAS, 5, 1)
	b := MakeDesc(KindDCAS, 5, 2)
	if SameDesc(a, b) {
		t.Fatal("different sequences must not compare SameDesc")
	}
	if SameDesc(a, MakeDesc(KindMCAS, 5, 1)) {
		t.Fatal("different kinds must not compare SameDesc")
	}
	if SameDesc(a, Nil) || SameDesc(Nil, a) {
		t.Fatal("nil never compares SameDesc")
	}
}

func TestNodeAndDescSpacesDisjoint(t *testing.T) {
	// No node reference can satisfy IsDesc and vice versa.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		n := MakeNode(rng.Uint64()&MaxNodeIndex, rng.Uint64()&MaxNodeTag)
		if IsDesc(n) {
			t.Fatalf("node ref %#x classified as descriptor", n)
		}
		d := MakeDesc(rng.Uint64()&3, rng.Uint64()&MaxDescIndex, rng.Uint64()&((1<<27)-1))
		if !IsDesc(d) {
			t.Fatalf("desc ref %#x not classified as descriptor", d)
		}
	}
}

func TestWordOperations(t *testing.T) {
	var w Word
	if w.Load() != 0 {
		t.Fatal("zero value must load 0")
	}
	w.Store(7)
	if w.Load() != 7 {
		t.Fatal("store/load")
	}
	if !w.CAS(7, 9) {
		t.Fatal("CAS with matching old must succeed")
	}
	if w.CAS(7, 11) {
		t.Fatal("CAS with stale old must fail")
	}
	if w.Swap(13) != 9 {
		t.Fatal("Swap must return previous value")
	}
	if w.Load() != 13 {
		t.Fatal("Swap must install new value")
	}
}
