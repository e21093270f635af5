package linearize

import (
	"cmp"
	"slices"
)

// Objects is the sequential specification of a set of containers with
// atomic compositions across them (§2, linearizability per Herlihy &
// Wing [12]): every composed operation is one step of the model, so no
// linearization may observe it half done.
//
// The containers are named A, B, C, ... in the order of Kinds, and an
// operation's name is a verb followed by the names of the containers it
// acts on, source first. Keys and values are packed into Op.Arg (keys
// and values below 2^32; the keys of fan and xfer below 2^16), and the
// key of an unkeyed container is ignored:
//
//	insX   Arg = key<<32|val; RetOK reports inserted. Only a keyed
//	       container refuses an insert: when the key is present.
//	remX   Arg = key; returns (value, ok). ok is false exactly when X
//	       has no element to give (empty, or no such key).
//	getX   Arg = key; remX without the removal.
//	moveXY Arg = skey<<32|tkey; Move: remX and insY in one step,
//	       returning the moved value. It fails, changing nothing,
//	       exactly when the remove or the insert would.
//	fanXYZ Arg = skey<<32|tkey1<<16|tkey2; MoveN to two targets: remX,
//	       insY and insZ of one element in one step; fails like move.
//	xferXY Arg = s1<<48|t1<<32|s2<<16|t2; TransferN of two key pairs,
//	       returning Ret = v1<<32|v2. A failed transfer is legal from
//	       every state: besides a missing key or a refused insert, two
//	       steps that would change one word of the structure fail it.
//	swapXY SwapHeads of two FIFO/LIFO containers: exchanges the elements
//	       a remove would take from each. It fails, changing nothing,
//	       exactly when a side is empty; Ret is ignored.
type Objects struct {
	Kinds []Kind
	// Initial seeds the containers, in Kinds' order; a missing entry
	// leaves its container empty.
	Initial [][]Elem
}

// Kind selects a container discipline.
type Kind int

const (
	// FIFO is a queue: a remove takes the oldest element.
	FIFO Kind = iota
	// LIFO is a stack: a remove takes the newest element.
	LIFO
	// Keyed is a map or an ordered list: elements are addressed by key,
	// and an insert of a present key fails.
	Keyed
	// Priority is a priority queue: a remove takes an element of the
	// least key (its priority), any one of them when several tie.
	Priority
)

// Elem is one element of a container: its key (ignored by FIFO and LIFO
// containers) and its value.
type Elem struct{ Key, Val uint64 }

// Init implements Model.
func (m Objects) Init() State {
	st := objState{kinds: m.Kinds, sides: make([][]Elem, len(m.Kinds))}
	for i, es := range m.Initial {
		for _, e := range es {
			st.sides[i], _ = st.put(i, e)
		}
	}
	return st
}

// objState holds each container's elements: FIFO and LIFO ones in
// insertion order, Keyed and Priority ones sorted by key (and value), so
// that equal states have equal Keys.
type objState struct {
	kinds []Kind
	sides [][]Elem
}

// find returns the index of the element a remove from side i takes: the
// first or last of a FIFO or LIFO side, key's element of a Keyed side,
// and of a Priority side the element of the least key whose value is
// want, or the first of the least key when none is. It returns -1 when
// the side has nothing to give.
func (st objState) find(i int, key, want uint64) int {
	s := st.sides[i]
	if len(s) == 0 {
		return -1
	}
	switch st.kinds[i] {
	case LIFO:
		return len(s) - 1
	case Keyed:
		if j, ok := slices.BinarySearchFunc(s, key, func(e Elem, k uint64) int { return cmp.Compare(e.Key, k) }); ok {
			return j
		}
		return -1
	case Priority:
		for j := 0; j < len(s) && s[j].Key == s[0].Key; j++ {
			if s[j].Val == want {
				return j
			}
		}
	}
	return 0
}

// take returns side i without element j, and the element.
func (st objState) take(i, j int) ([]Elem, Elem) {
	s := st.sides[i]
	return slices.Concat(s[:j], s[j+1:]), s[j]
}

// put returns side i with e inserted, or false when side i refuses it.
func (st objState) put(i int, e Elem) ([]Elem, bool) {
	s := st.sides[i]
	switch st.kinds[i] {
	case FIFO, LIFO:
		return append(slices.Clip(s), Elem{Val: e.Val}), true
	case Keyed:
		j, found := slices.BinarySearchFunc(s, e.Key, func(x Elem, k uint64) int { return cmp.Compare(x.Key, k) })
		return slices.Insert(slices.Clip(s), j, e), !found
	}
	j, _ := slices.BinarySearchFunc(s, e, func(x, y Elem) int {
		return cmp.Or(cmp.Compare(x.Key, y.Key), cmp.Compare(x.Val, y.Val))
	})
	return slices.Insert(slices.Clip(s), j, e), true
}

// with returns the state with the given sides replaced.
func (st objState) with(sides map[int][]Elem) objState {
	n := objState{kinds: st.kinds, sides: slices.Clone(st.sides)}
	for i, s := range sides {
		n.sides[i] = s
	}
	return n
}

// parse splits an operation name into its verb and container indexes.
func (st objState) parse(name string) (string, []int, bool) {
	k := len(name)
	for k > 0 && name[k-1] >= 'A' && name[k-1] <= 'Z' {
		k--
	}
	var sides []int
	for _, c := range name[k:] {
		i := int(c - 'A')
		if i >= len(st.kinds) || slices.Contains(sides, i) {
			return "", nil, false
		}
		sides = append(sides, i)
	}
	return name[:k], sides, true
}

// arity is the number of containers each verb acts on.
var arity = map[string]int{"ins": 1, "rem": 1, "get": 1, "move": 2, "fan": 3, "xfer": 2, "swap": 2}

// Apply implements State.
func (st objState) Apply(op Op) (State, bool) {
	verb, c, ok := st.parse(op.Name)
	if n := arity[verb]; !ok || n == 0 || len(c) != n {
		return nil, false
	}
	switch verb {
	case "ins":
		s, ok := st.put(c[0], Elem{op.Arg >> 32, op.Arg & 0xffffffff})
		if !ok || !op.RetOK {
			return st, ok == op.RetOK
		}
		return st.with(map[int][]Elem{c[0]: s}), true
	case "rem", "get":
		j := st.find(c[0], op.Arg, op.Ret)
		if j < 0 {
			return st, !op.RetOK
		}
		s, e := st.take(c[0], j)
		if !op.RetOK || op.Ret != e.Val {
			return nil, false
		}
		if verb == "get" {
			return st, true
		}
		return st.with(map[int][]Elem{c[0]: s}), true
	case "move", "fan":
		tkeys := []uint64{op.Arg & 0xffffffff}
		if verb == "fan" {
			tkeys = []uint64{op.Arg >> 16 & 0xffff, op.Arg & 0xffff}
		}
		j := st.find(c[0], op.Arg>>32, op.Ret)
		if j < 0 {
			return st, !op.RetOK
		}
		s, e := st.take(c[0], j)
		sides := map[int][]Elem{c[0]: s}
		for i, tkey := range tkeys {
			s, ok := st.put(c[i+1], Elem{tkey, e.Val})
			if !ok {
				return st, !op.RetOK
			}
			sides[c[i+1]] = s
		}
		if !op.RetOK || op.Ret != e.Val {
			return nil, false
		}
		return st.with(sides), true
	case "xfer":
		if !op.RetOK {
			return st, true // see the type's comment
		}
		n := st
		for i, ret := range []uint64{op.Ret >> 32, op.Ret & 0xffffffff} {
			pair := op.Arg >> (32 - 32*i)
			j := n.find(c[0], pair>>16&0xffff, ret)
			if j < 0 {
				return nil, false
			}
			s, e := n.take(c[0], j)
			if e.Val != ret {
				return nil, false
			}
			n = n.with(map[int][]Elem{c[0]: s})
			if s, ok = n.put(c[1], Elem{pair & 0xffff, e.Val}); !ok {
				return nil, false
			}
			n = n.with(map[int][]Elem{c[1]: s})
		}
		return n, true
	default: // swap
		ja, jb := st.find(c[0], 0, 0), st.find(c[1], 0, 0)
		if ja < 0 || jb < 0 {
			return st, !op.RetOK // a swap observing an empty side fails
		}
		if !op.RetOK {
			return nil, false
		}
		a, b := slices.Clone(st.sides[c[0]]), slices.Clone(st.sides[c[1]])
		a[ja].Val, b[jb].Val = b[jb].Val, a[ja].Val
		return st.with(map[int][]Elem{c[0]: a, c[1]: b}), true
	}
}

// Key implements State: each container's length and then its keys and
// values, as little-endian bytes, so distinct states never collide in
// the memo table.
func (st objState) Key() string {
	buf := make([]byte, 0, 64)
	for _, s := range st.sides {
		buf = append(buf, byte(len(s)), byte(len(s)>>8))
		for _, e := range s {
			for _, x := range []uint64{e.Key, e.Val} {
				for k := 0; k < 8; k++ {
					buf = append(buf, byte(x>>(8*k)))
				}
			}
		}
	}
	return string(buf)
}
