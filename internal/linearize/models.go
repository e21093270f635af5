package linearize

import "sort"

// Sequential models for pairs of containers with an atomic move, the
// specification the paper's composed move must satisfy (§2,
// linearizability per Herlihy & Wing [12]).
//
// Operation names understood by PairModel states:
//
//	insA(v) / insB(v)   — insert; always succeeds (RetOK true)
//	remA() / remB()     — remove; returns (value, ok)
//	moveAB() / moveBA() — atomic move; returns (moved value, ok)
//	swapAB()            — atomically exchange the heads of A and B
//	                      (SwapHeads with k=2); fails, changing nothing,
//	                      only when a side is empty; Ret is ignored
//	                      (the implementation reports success alone)
//
// Container kinds determine insertion/removal order (FIFO queue or LIFO
// stack).

// Kind selects a container discipline.
type Kind int

const (
	// FIFO is a queue.
	FIFO Kind = iota
	// LIFO is a stack.
	LIFO
)

// PairModel is a model of two containers A and B with atomic moves.
type PairModel struct {
	AKind, BKind Kind
	// InitialA/InitialB seed the containers.
	InitialA, InitialB []uint64
}

// Init implements Model.
func (m PairModel) Init() State {
	return pairState{
		aKind: m.AKind, bKind: m.BKind,
		a: append([]uint64(nil), m.InitialA...),
		b: append([]uint64(nil), m.InitialB...),
	}
}

type pairState struct {
	aKind, bKind Kind
	a, b         []uint64
}

// take removes the next element from a container per its discipline.
func take(kind Kind, s []uint64) (uint64, []uint64, bool) {
	if len(s) == 0 {
		return 0, s, false
	}
	if kind == FIFO {
		return s[0], s[1:], true
	}
	return s[len(s)-1], s[:len(s)-1], true
}

// putHead places v where take would next find it — the inverse of take,
// used by swapAB to replace a head in place.
func putHead(kind Kind, s []uint64, v uint64) []uint64 {
	if kind == FIFO {
		return append([]uint64{v}, s...)
	}
	return append(append(make([]uint64, 0, len(s)+1), s...), v)
}

func (st pairState) Apply(op Op) (State, bool) {
	a := st.a
	b := st.b
	switch op.Name {
	case "insA":
		if !op.RetOK {
			return nil, false // plain inserts always succeed here
		}
		na := append(append(make([]uint64, 0, len(a)+1), a...), op.Arg)
		return pairState{st.aKind, st.bKind, na, b}, true
	case "insB":
		if !op.RetOK {
			return nil, false
		}
		nb := append(append(make([]uint64, 0, len(b)+1), b...), op.Arg)
		return pairState{st.aKind, st.bKind, a, nb}, true
	case "remA":
		v, na, ok := take(st.aKind, a)
		if !ok {
			return st, !op.RetOK // empty: only a failed remove is legal
		}
		if !op.RetOK || op.Ret != v {
			return nil, false
		}
		return pairState{st.aKind, st.bKind, na, b}, true
	case "remB":
		v, nb, ok := take(st.bKind, b)
		if !ok {
			return st, !op.RetOK
		}
		if !op.RetOK || op.Ret != v {
			return nil, false
		}
		return pairState{st.aKind, st.bKind, a, nb}, true
	case "moveAB":
		v, na, ok := take(st.aKind, a)
		if !ok {
			return st, !op.RetOK // move from empty fails, atomically a no-op
		}
		if !op.RetOK || op.Ret != v {
			return nil, false
		}
		nb := append(append(make([]uint64, 0, len(b)+1), b...), v)
		return pairState{st.aKind, st.bKind, na, nb}, true
	case "moveBA":
		v, nb, ok := take(st.bKind, b)
		if !ok {
			return st, !op.RetOK
		}
		if !op.RetOK || op.Ret != v {
			return nil, false
		}
		na := append(append(make([]uint64, 0, len(a)+1), a...), v)
		return pairState{st.aKind, st.bKind, na, nb}, true
	case "swapAB":
		va, na, okA := take(st.aKind, a)
		vb, nb, okB := take(st.bKind, b)
		if !okA || !okB {
			return st, !op.RetOK // a swap observing an empty side fails, a no-op
		}
		if !op.RetOK {
			return nil, false // both sides held a head: failure is illegal
		}
		return pairState{st.aKind, st.bKind, putHead(st.aKind, na, vb), putHead(st.bKind, nb, va)}, true
	}
	return nil, false
}

// MapPairModel models two keyed maps A and B with atomic cross-map
// moves — the specification the sharded hash map must satisfy even
// while its shards grow.
//
// Operation names understood by MapPairModel states (keys and values
// are packed into Op.Arg as key<<32|value, so tests must keep both
// below 2^32):
//
//	putA/putB  — Arg = key<<32|val; RetOK reports inserted (false:
//	             key already present)
//	delA/delB  — Arg = key; returns (value, ok)
//	getA/getB  — Arg = key; returns (value, ok) without removing
//	mvAB/mvBA  — Arg = skey<<32|tkey; atomic keyed move; returns the
//	             moved value
//	mv2AB/mv2BA — Arg = s1<<48|t1<<32|s2<<16|t2 (keys below 2^16);
//	             atomic two-key transfer (TransferN with k=2); returns
//	             Ret = v1<<32|v2. Both keys move in one step: no
//	             ordering may observe one moved and the other not.
//
// A failed move is modeled as a legal no-op from every state: besides
// the semantic failures (missing source key, occupied target key) the
// implementation may also reject a move whose target shard is mid-grow,
// and a failed move changes nothing either way. Failed puts/dels/gets
// stay strict: the implementation never rejects those spuriously.
type MapPairModel struct {
	InitialA, InitialB map[uint64]uint64
}

// Init implements Model.
func (m MapPairModel) Init() State {
	st := mapPairState{a: map[uint64]uint64{}, b: map[uint64]uint64{}}
	for k, v := range m.InitialA {
		st.a[k] = v
	}
	for k, v := range m.InitialB {
		st.b[k] = v
	}
	return st
}

type mapPairState struct {
	a, b map[uint64]uint64
}

func (st mapPairState) clone() mapPairState {
	n := mapPairState{a: make(map[uint64]uint64, len(st.a)), b: make(map[uint64]uint64, len(st.b))}
	for k, v := range st.a {
		n.a[k] = v
	}
	for k, v := range st.b {
		n.b[k] = v
	}
	return n
}

// unpackKV splits an Op.Arg encoded as key<<32|value.
func unpackKV(arg uint64) (key, val uint64) { return arg >> 32, arg & 0xffffffff }

func (st mapPairState) Apply(op Op) (State, bool) {
	fromA := true
	switch op.Name {
	case "putB", "delB", "getB", "mvBA", "mv2BA":
		fromA = false
	}
	src, dst := st.a, st.b
	if !fromA {
		src, dst = st.b, st.a
	}
	// sides returns the clone's source and destination maps.
	sides := func(n mapPairState) (s, d map[uint64]uint64) {
		if fromA {
			return n.a, n.b
		}
		return n.b, n.a
	}
	switch op.Name {
	case "putA", "putB":
		k, v := unpackKV(op.Arg)
		_, exists := src[k]
		if op.RetOK == exists {
			return nil, false // inserted iff the key was absent
		}
		if !op.RetOK {
			return st, true
		}
		n := st.clone()
		ns, _ := sides(n)
		ns[k] = v
		return n, true
	case "delA", "delB":
		v, exists := src[op.Arg]
		if !exists {
			return st, !op.RetOK
		}
		if !op.RetOK || op.Ret != v {
			return nil, false
		}
		n := st.clone()
		ns, _ := sides(n)
		delete(ns, op.Arg)
		return n, true
	case "getA", "getB":
		v, exists := src[op.Arg]
		if op.RetOK != exists || (exists && op.Ret != v) {
			return nil, false
		}
		return st, true
	case "mvAB", "mvBA":
		if !op.RetOK {
			return st, true // failed moves are no-ops (see type doc)
		}
		skey, tkey := unpackKV(op.Arg)
		v, exists := src[skey]
		if !exists || op.Ret != v {
			return nil, false
		}
		if _, occupied := dst[tkey]; occupied {
			return nil, false // a successful move needs a free target key
		}
		n := st.clone()
		ns, nd := sides(n)
		delete(ns, skey)
		nd[tkey] = v
		return n, true
	case "mv2AB", "mv2BA":
		if !op.RetOK {
			return st, true // failed transfers are no-ops (see type doc)
		}
		s1, t1 := op.Arg>>48, (op.Arg>>32)&0xffff
		s2, t2 := (op.Arg>>16)&0xffff, op.Arg&0xffff
		v1, ok1 := src[s1]
		v2, ok2 := src[s2]
		if !ok1 || !ok2 || op.Ret != v1<<32|v2 {
			return nil, false
		}
		if _, occ := dst[t1]; occ {
			return nil, false
		}
		if _, occ := dst[t2]; occ {
			return nil, false
		}
		n := st.clone()
		ns, nd := sides(n)
		delete(ns, s1)
		delete(ns, s2)
		nd[t1] = v1
		nd[t2] = v2
		return n, true
	}
	return nil, false
}

// Key canonically encodes both maps as sorted (key, value) pairs with a
// separator, so distinct states never collide in the memo table.
func (st mapPairState) Key() string {
	buf := make([]byte, 0, 16*(len(st.a)+len(st.b))+1)
	enc := func(m map[uint64]uint64) {
		keys := make([]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			for x, i := k, 0; i < 8; i++ {
				buf = append(buf, byte(x))
				x >>= 8
			}
			for x, i := m[k], 0; i < 8; i++ {
				buf = append(buf, byte(x))
				x >>= 8
			}
		}
	}
	enc(st.a)
	buf = append(buf, 0xfe)
	enc(st.b)
	return string(buf)
}

// Key canonically encodes both sequences (little-endian bytes with a
// separator), so distinct states never collide in the memo table.
func (st pairState) Key() string {
	buf := make([]byte, 0, 8*(len(st.a)+len(st.b))+1)
	enc := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v))
			v >>= 8
		}
	}
	for _, v := range st.a {
		enc(v)
	}
	buf = append(buf, 0xfe)
	for _, v := range st.b {
		enc(v)
	}
	return string(buf)
}
