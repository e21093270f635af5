package core_test

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harrislist"
	"repro/internal/hashmap"
	"repro/internal/linearize"
	"repro/internal/mm"
	"repro/internal/msqueue"
	"repro/internal/pqueue"
	"repro/internal/tstack"
	"repro/internal/verify"
	"repro/internal/word"
)

// TestConformance is the paper's Definition 2 as one table. Its claim is
// general: an object whose linearization point is one CAS made through
// scas, whose insert and remove sides publish in disjoint hazard slots
// (§5.1), and whose element is known before that point composes with any
// other such object. The rows are the 25 ordered (source, target) pairs
// of the five move-ready containers, two distinct objects on a
// same-kind row. The columns are the composed operations — Move, MoveN
// to two targets of the target's kind, DrainN, and TransferN, which
// succeeds only where both sides are keyed — each with every check that
// applies to it:
//
//   - model: one thread runs the operation and plain inserts and removes
//     on every object, and each result is a legal step of
//     linearize.Objects;
//   - conserve: four threads run the operation on 600 tokens beside
//     plain remove/re-insert racers on both sides; at quiescence every
//     token is in the source or the target exactly once, and MoveN's
//     second target holds it as often as it was fanned out and not
//     taken back;
//   - linearize: short concurrent histories, with map directories
//     doubling beside them, pass linearize.Check;
//   - exhaust: on a thread the arena cannot serve the operation fails,
//     Exhausted reports it once, nothing changes, and it succeeds once
//     nodes are freed;
//   - park: the composition parks at kcas-publish, and a peer's plain
//     remove on the source completes it;
//   - shared (TransferN, every row): two steps that would change one word
//     fail the transfer, which changes nothing.
//
// Two checks ride along: conserve and linearize run under slotRule, which
// checks every decided chain against Definition 2's slot rule, and
// conserve and park end with package verify's structural walkers. Maps
// start at one bucket per shard, so every cell grows them.
func TestConformance(t *testing.T) {
	for _, src := range kinds {
		for _, dst := range kinds {
			t.Run(src.name+"-"+dst.name, func(t *testing.T) {
				for _, op := range []string{"Move", "MoveN", "DrainN", "TransferN"} {
					t.Run(op, func(t *testing.T) {
						if op == "TransferN" {
							t.Run("shared", func(t *testing.T) { checkSharedWord(t, src, dst) })
							if !src.keyed() || !dst.keyed() {
								return
							}
						}
						t.Run("model", func(t *testing.T) { checkModel(t, src, dst, op) })
						t.Run("conserve", func(t *testing.T) { checkConservation(t, src, dst, op) })
						t.Run("linearize", func(t *testing.T) { checkLinearizable(t, src, dst, op) })
						t.Run("exhaust", func(t *testing.T) { checkExhaustion(t, src, dst, op) })
						t.Run("park", func(t *testing.T) { checkPark(t, src, dst, op) })
					})
				}
			})
		}
	}
}

// kindSpec is one move-ready container kind and its sequential model.
type kindSpec struct {
	name  string
	model linearize.Kind
	new   func(*core.Thread) core.MoveReady
}

var kinds = []kindSpec{
	{"queue", linearize.FIFO, func(t *core.Thread) core.MoveReady { return msqueue.New(t) }},
	{"stack", linearize.LIFO, func(t *core.Thread) core.MoveReady { return tstack.New(t) }},
	{"list", linearize.Keyed, func(t *core.Thread) core.MoveReady { return harrislist.New(t) }},
	{"map", linearize.Keyed, func(t *core.Thread) core.MoveReady { return hashmap.NewSharded(t, 2, 1, 0) }},
	{"pqueue", linearize.Priority, func(t *core.Thread) core.MoveReady { return pqueue.New(t) }},
}

func (k kindSpec) keyed() bool { return k.model == linearize.Keyed }

// keySpace bounds the random keys of the keyed sides; priorities range
// over 1..50, so equal priorities meet too.
const keySpace = 6

// cell is one (row, operation) of the table on its own runtime: objs[0]
// is the source, objs[1] the target and objs[2] MoveN's second target,
// of the target's kind — the model's A, B and C.
type cell struct {
	op    string
	kinds [3]kindSpec
	objs  [3]core.MoveReady
	rt    *core.Runtime
}

// newCell builds the cell's runtime and objects and returns the thread
// that built them.
func newCell(op string, src, dst kindSpec, cfg core.Config) (*cell, *core.Thread) {
	c := &cell{op: op, kinds: [3]kindSpec{src, dst, dst}, rt: core.NewRuntime(cfg)}
	th := c.rt.RegisterThread()
	for i, k := range c.kinds {
		c.objs[i] = k.new(th)
	}
	return c, th
}

// sides is the number of objects the cell's operation uses.
func (c *cell) sides() int {
	if c.op == "MoveN" {
		return 3
	}
	return 2
}

// model is linearize.Objects over the cell's objects.
func (c *cell) model(initial [][]linearize.Elem) linearize.Objects {
	m := linearize.Objects{Initial: initial}
	for i := range c.sides() {
		m.Kinds = append(m.Kinds, c.kinds[i].model)
	}
	return m
}

// fill inserts keys 1..3 (values 11..13) into the source and, with
// target, keys 4 and 9 (values 14 and 19) into the target, and returns
// them as the model's initial contents. A list target's key 4 splits
// the random target keys 1..keySpace into two gaps, so that a TransferN
// into it can succeed.
func (c *cell) fill(t *testing.T, th *core.Thread, target bool) [][]linearize.Elem {
	init := make([][]linearize.Elem, c.sides())
	put := func(i int, key uint64) {
		if !c.objs[i].Insert(th, key, 10+key) {
			t.Fatalf("%s: setup insert of key %d failed", c.kinds[i].name, key)
		}
		init[i] = append(init[i], linearize.Elem{Key: key, Val: 10 + key})
	}
	for k := uint64(1); k <= 3; k++ {
		put(0, k)
	}
	if target {
		put(1, 4)
		put(1, 9)
	}
	return init
}

// keyFor draws side i's key from r: a keyed side's from 1..keySpace, a
// priority queue's priority from 1..50, 0 on the other sides.
func (c *cell) keyFor(i int, r uint64) uint64 {
	switch c.kinds[i].model {
	case linearize.Keyed:
		return r%keySpace + 1
	case linearize.Priority:
		return r%50 + 1
	}
	return 0
}

// compose runs the cell's operation with random keys and returns it as
// model operations.
func (c *cell) compose(th *core.Thread, rnd func() uint64) []linearize.Op {
	t1 := c.keyFor(1, rnd())
	t2 := c.keyFor(2, rnd())
	if c.op == "TransferN" { // distinct from t1
		t2 = (t1+rnd()%(keySpace-1))%keySpace + 1
	}
	return c.composeAt(th, c.keyFor(0, rnd()), t1, t2)
}

// composeAt runs the cell's operation from source key skey to target
// key t1, and t2: MoveN's key in the second target, or TransferN's
// second target key (its second source key is skey's successor). DrainN
// drains up to two elements; each move it made, and the failed one that
// stopped it, is one model operation.
func (c *cell) composeAt(th *core.Thread, skey, t1, t2 uint64) []linearize.Op {
	a, b := c.objs[0], c.objs[1]
	mv := linearize.Op{Name: "moveAB", Arg: skey<<32 | t1}
	switch c.op {
	case "Move":
		mv.Ret, mv.RetOK = th.Move(a, b, skey, t1)
	case "MoveN":
		mv = linearize.Op{Name: "fanABC", Arg: skey<<32 | t1<<16 | t2}
		mv.Ret, mv.RetOK = th.MoveN(a, []core.Inserter{b, c.objs[2]}, skey, []uint64{t1, t2})
	case "DrainN":
		var ops []linearize.Op
		moved := th.DrainN(a, b, skey, t1, 2, nil)
		for _, v := range moved {
			ops = append(ops, linearize.Op{Name: mv.Name, Arg: mv.Arg, Ret: v, RetOK: true})
		}
		if len(moved) < 2 {
			ops = append(ops, mv)
		}
		return ops
	case "TransferN":
		s2 := skey%keySpace + 1
		mv = linearize.Op{Name: "xferAB", Arg: skey<<48 | t1<<32 | s2<<16 | t2}
		if vals, ok := th.TransferN(a, b, []uint64{skey, s2}, []uint64{t1, t2}); ok {
			mv.Ret, mv.RetOK = vals[0]<<32|vals[1], true
		}
	}
	return []linearize.Op{mv}
}

// plain runs a plain insert of val or a plain remove, picked by r, on
// one of the cell's objects.
func (c *cell) plain(th *core.Thread, r, val uint64) linearize.Op {
	i := int(r % uint64(c.sides()))
	side := string(rune('A' + i))
	key := c.keyFor(i, r>>8)
	if r>>4&1 == 0 {
		return linearize.Op{Name: "ins" + side, Arg: key<<32 | val, RetOK: c.objs[i].Insert(th, key, val)}
	}
	v, ok := c.objs[i].Remove(th, key)
	return linearize.Op{Name: "rem" + side, Arg: key, Ret: v, RetOK: ok}
}

// state renders the objects' contents, read by th at quiescence, as the
// canonical key of the model state holding them.
func (c *cell) state(th *core.Thread) string {
	init := make([][]linearize.Elem, c.sides())
	for i := range init {
		init[i] = contents(th, c.objs[i])
	}
	return c.model(init).Init().Key()
}

// contents lists obj's elements: a queue's oldest first, a stack's
// newest last, a keyed or priority container's with their keys.
func contents(th *core.Thread, obj core.MoveReady) []linearize.Elem {
	var es []linearize.Elem
	switch o := obj.(type) {
	case *msqueue.Queue:
		head, _ := o.Anchors()
		for cur := th.Read(head); ; {
			next := th.Read(&th.Node(cur).Next)
			if next == word.Nil {
				return es
			}
			es = append(es, linearize.Elem{Val: th.Node(next).Val})
			cur = next
		}
	case *tstack.Stack:
		for cur := th.Read(o.TopWord()); word.NodeIndex(cur) != 0; cur = th.Read(&th.Node(cur).Next) {
			es = append(es, linearize.Elem{Val: th.Node(cur).Val})
		}
		slices.Reverse(es)
	case *harrislist.List:
		harrislist.Walk(th, o.HeadWord(), func(n *arena.Node) { es = append(es, linearize.Elem{Key: n.Key, Val: n.Val}) })
	case *pqueue.PQueue:
		o.Walk(th, func(pr, v uint64) { es = append(es, linearize.Elem{Key: pr, Val: v}) })
	case *hashmap.Map:
		o.Walk(th, func(k, v uint64) { es = append(es, linearize.Elem{Key: k, Val: v}) })
	}
	return es
}

// structure runs package verify's walkers over obj at quiescence and
// returns the first violation, or "".
func structure(rt *core.Runtime, obj core.MoveReady) string {
	var reps []*verify.Report
	add := func(r *verify.Report, _ int) { reps = append(reps, r) }
	switch o := obj.(type) {
	case *msqueue.Queue:
		head, tail := o.Anchors()
		add(verify.Queue(rt.Arena(), head, tail))
	case *tstack.Stack:
		add(verify.Stack(rt.Arena(), o.TopWord()))
	case *harrislist.List:
		add(verify.List(rt.Arena(), o.HeadWord()))
	case *pqueue.PQueue:
		add(verify.PQueue(rt.Arena(), o.HeadWord()))
	case *hashmap.Map:
		o.EachHead(func(head *word.Word) { add(verify.List(rt.Arena(), head)) })
	}
	for _, r := range reps {
		if !r.Ok() {
			return r.Err()
		}
	}
	return ""
}

// xorshift returns a deterministic random stream.
func xorshift(seed uint64) func() uint64 {
	x := seed*0x9e3779b97f4a7c15 + 1
	return func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
}

// slotRule is a fault.Injector that checks Definition 2's slot rule each
// time a thread publishes the descriptor of its own composition
// (Thread.SlotRuleError).
type slotRule struct {
	threads []*core.Thread // by ID; set before any of them runs
	checked atomic.Int64
	err     atomic.Pointer[error]
}

func (s *slotRule) Fire(p fault.Point, tid int) {
	if p != fault.KCASAfterPublish {
		return
	}
	deciding, err := s.threads[tid].SlotRuleError()
	if deciding {
		s.checked.Add(1)
	}
	if err != nil {
		s.err.CompareAndSwap(nil, &err)
	}
}

// verdict fails t on a violation, or when no decision was checked.
func (s *slotRule) verdict(t *testing.T) {
	t.Helper()
	if err := s.err.Load(); err != nil {
		t.Errorf("Definition 2's slot rule: %v", *err)
	}
	if s.checked.Load() == 0 {
		t.Error("the slot rule checked no decision")
	}
}

// checkModel runs 400 random steps on one thread, a third of them the
// cell's operation, and steps the model through each result; the
// objects must end in the model's state.
func checkModel(t *testing.T, src, dst kindSpec, op string) {
	c, th := newCell(op, src, dst, core.Config{MaxThreads: 1, ArenaCapacity: 1 << 14})
	st := c.model(nil).Init()
	rnd := xorshift(1)
	composed := 0
	for i := range 400 {
		var ops []linearize.Op
		if i%3 == 0 {
			if ops = c.compose(th, rnd); ops[0].RetOK {
				composed++
			}
		} else {
			ops = []linearize.Op{c.plain(th, rnd(), 100+uint64(i))}
		}
		for _, o := range ops {
			next, ok := st.Apply(o)
			if !ok {
				t.Fatalf("step %d: %v is not a legal step of the model", i, o)
			}
			st = next
		}
	}
	if c.state(th) != st.Key() {
		t.Fatal("the objects' contents differ from the model's")
	}
	if composed == 0 {
		t.Fatalf("no %s succeeded", op)
	}
}

// checkConservation circulates 600 tokens through four threads: half the
// operations are the cell's, from source to target; the rest are plain
// racers that remove a token from the target (or MoveN's second target,
// which drops it) or from the source, and re-insert it, alternating
// sides until one takes it. A keyed side addresses a token by its
// number, so a keyed-to-keyed composition keeps token k under key k;
// the priority queue holds every token at priority 0, so every insert
// into it ties. Tokens start outside the maps, so the maps grow while
// the compositions run.
func checkConservation(t *testing.T, src, dst kindSpec, op string) {
	const threads, tokens, ops = 4, 600, 2000
	sr := &slotRule{}
	c, setup := newCell(op, src, dst, core.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 15, Fault: sr})
	a, b := c.objs[0], c.objs[1]
	sr.threads = []*core.Thread{setup}
	for range threads {
		sr.threads = append(sr.threads, c.rt.RegisterThread())
	}
	key := func(i int, tok uint64) uint64 {
		if c.kinds[i].keyed() {
			return tok
		}
		return 0
	}
	insert := func(th *core.Thread, i int, tok uint64) bool { return c.objs[i].Insert(th, key(i, tok), tok) }
	for tok := uint64(1); tok <= tokens; tok++ {
		side := int(tok % 2)
		if src.name == "map" && dst.name != "map" {
			side = 1
		} else if dst.name == "map" && src.name != "map" {
			side = 0
		}
		if !insert(setup, side, tok) {
			t.Fatalf("setup cannot place token %d", tok)
		}
	}

	fanned, dropped := make([]atomic.Int64, tokens+1), make([]atomic.Int64, tokens+1)
	var wg sync.WaitGroup
	for w, th := range sr.threads[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := xorshift(uint64(w + 1))
			var buf [4]uint64
			// land re-inserts a held token, alternating sides until one
			// takes it: a composition from an unkeyed to a keyed side
			// files a token under another token's key, which may be taken.
			land := func(tok uint64, first, second int) {
				for !insert(th, first, tok) && !insert(th, second, tok) {
				}
			}
			for range ops {
				r := rnd()
				tok := r>>8%tokens + 1
				switch r % 8 {
				case 0, 1, 2, 3:
					switch op {
					case "Move":
						th.Move(a, b, key(0, tok), key(1, tok))
					case "MoveN":
						if v, ok := th.MoveN(a, []core.Inserter{b, c.objs[2]}, key(0, tok), []uint64{key(1, tok), key(2, tok)}); ok {
							fanned[v].Add(1)
						}
					case "DrainN":
						th.DrainN(a, b, key(0, tok), key(1, tok), len(buf), buf[:0])
					case "TransferN":
						if tok2 := r>>20%tokens + 1; tok2 != tok {
							th.TransferN(a, b, []uint64{tok, tok2}, []uint64{tok, tok2})
						}
					}
				case 4, 5:
					if v, ok := b.Remove(th, key(1, tok)); ok {
						land(v, 0, 1)
					}
				case 6:
					if v, ok := a.Remove(th, key(0, tok)); ok {
						land(v, 0, 1)
					}
				default:
					if op != "MoveN" {
						if v, ok := b.Remove(th, key(1, tok)); ok {
							land(v, 1, 0)
						}
					} else if v, ok := c.objs[2].Remove(th, key(2, tok)); ok {
						dropped[v].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	sr.verdict(t)

	for i := range c.sides() {
		if err := structure(c.rt, c.objs[i]); err != "" {
			t.Fatalf("%s %c: %s", c.kinds[i].name, 'A'+i, err)
		}
		if m, ok := c.objs[i].(*hashmap.Map); ok {
			if grows, _, _ := m.Stats(); grows == 0 {
				t.Fatalf("map %c never grew", 'A'+i)
			}
		}
	}
	var seen [3][tokens + 1]int
	for i := range c.sides() {
		take := func() (uint64, bool) { return c.objs[i].Remove(setup, 0) }
		for k := uint64(1); c.kinds[i].keyed() && k <= tokens; k++ {
			if v, ok := c.objs[i].Remove(setup, k); ok {
				seen[i][v]++ // a value outside 1..tokens panics here
			}
		}
		for v, ok := take(); ok; v, ok = take() {
			seen[i][v]++
		}
	}
	for tok := 1; tok <= tokens; tok++ {
		if n := seen[0][tok] + seen[1][tok]; n != 1 {
			t.Fatalf("token %d is in source and target %d times", tok, n)
		}
		if n, want := seen[2][tok], fanned[tok].Load()-dropped[tok].Load(); int64(n) != want {
			t.Fatalf("token %d is in the second target %d times, want %d", tok, n, want)
		}
	}
}

// checkLinearizable records 20 histories of three threads running five
// steps each, a third of them the cell's operation and the rest plain
// inserts and removes on every object, while a fourth thread doubles
// the maps' directories and links their sentinels. Each history must be
// linearizable against the model.
func checkLinearizable(t *testing.T, src, dst kindSpec, op string) {
	const threads = 3
	sr := &slotRule{}
	cfg := core.Config{MaxThreads: threads + 2, ArenaCapacity: 1 << 14, Fault: sr}
	c, setup := newCell(op, src, dst, cfg)
	sr.threads = []*core.Thread{setup}
	for range threads + 1 {
		sr.threads = append(sr.threads, c.rt.RegisterThread())
	}
	workers, grower := sr.threads[1:threads+1], sr.threads[threads+1]
	for seed := uint64(1); seed <= 20; seed++ {
		for i, k := range c.kinds {
			c.objs[i] = k.new(setup)
		}
		model := c.model(c.fill(t, setup, true))
		var (
			clock atomic.Int64
			mu    sync.Mutex
			hist  []linearize.Op
			stop  atomic.Bool
			wg    sync.WaitGroup
			gwg   sync.WaitGroup
		)
		if src.name == "map" || dst.name == "map" {
			gwg.Add(1)
			go func() {
				defer gwg.Done()
				for !stop.Load() {
					for _, obj := range c.objs {
						if m, ok := obj.(*hashmap.Map); ok && !m.RebalanceStep(grower) && m.Buckets() < 64 {
							m.Grow(grower)
						}
					}
					runtime.Gosched()
				}
			}()
		}
		for w, th := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rnd := xorshift(seed<<8 | uint64(w))
				for i := range uint64(5) {
					inv := clock.Add(1)
					var ops []linearize.Op
					if rnd()%3 == 0 {
						ops = c.compose(th, rnd)
					} else {
						ops = []linearize.Op{c.plain(th, rnd(), 100+seed<<12+uint64(w)<<8+i)}
					}
					ret := clock.Add(1)
					mu.Lock()
					for _, o := range ops {
						o.Thread, o.Invoke, o.Return = w, inv, ret
						hist = append(hist, o)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		stop.Store(true)
		gwg.Wait()
		if !linearize.Check(model, hist) {
			t.Fatalf("seed %d: history not linearizable:\n%v", seed, hist)
		}
	}
	sr.verdict(t)
}

// checkExhaustion starves the composing thread: the peer's first carve
// takes the whole arena and fills the objects.
func checkExhaustion(t *testing.T, src, dst kindSpec, op string) {
	c, peer := newCell(op, src, dst, core.Config{MaxThreads: 2, ArenaCapacity: arena.ReservedIndexes + mm.LocalListCap})
	c.fill(t, peer, true)
	th := c.rt.RegisterThread()
	run := func() bool {
		return c.composeAt(th, c.keyFor(0, 0), c.keyFor(1, 4), apart(c.objs[1], c.keyFor(1, 4)))[0].RetOK
	}
	before := c.state(peer)
	if run() {
		t.Fatal("succeeded on a thread the arena cannot serve")
	}
	if got := c.state(peer); got != before {
		t.Fatal("the failed call changed the objects")
	}
	if !th.Exhausted() || th.Exhausted() {
		t.Fatal("Exhausted does not report the failed allocation exactly once")
	}
	if ins, rem, other := th.PublishedSlots(); th.MoveInFlight() || other != 0 || ins > 2 || rem > 2 {
		t.Fatalf("in flight=%v; %d insert-side, %d remove-side and %d other slots left published, want at most 2, 2 and 0",
			th.MoveInFlight(), ins, rem, other)
	}
	peer.FlushMemory() // the peer's unused nodes go to the global stack
	if !run() || th.Exhausted() {
		t.Fatal("failed once the peer freed nodes")
	}
}

// apart returns a key above t1 that a TransferN can insert beside t1
// into dst as filled (key 9 in it): on a list with key 9 between them, on
// a map in another bucket chain.
func apart(dst core.MoveReady, t1 uint64) uint64 {
	k := uint64(10)
	if m, ok := dst.(*hashmap.Map); ok {
		for k = t1 + 1; k == 9 || m.SameChain(t1, k); k++ {
		}
	}
	return k
}

// checkPark parks the composition at kcas-publish, where its descriptor
// holds the source's word, and runs a peer's plain remove on the source
// meanwhile. The peer must help the composition to completion and
// return: the objects then hold the model's state after the
// composition's first move and the peer's remove, in that order, and
// the released composition returns its result.
func checkPark(t *testing.T, src, dst kindSpec, op string) {
	plan := fault.NewPlan()
	c, victim := newCell(op, src, dst, core.Config{MaxThreads: 2, ArenaCapacity: 1 << 12, Fault: plan})
	model := c.model(c.fill(t, victim, true))
	peer := c.rt.RegisterThread()
	skey, t1 := c.keyFor(0, 0), c.keyFor(1, 4)
	plan.Park(fault.KCASAfterPublish, fault.Nth(1).OnThread(victim.ID()))
	defer plan.Release()
	done := make(chan []linearize.Op, 1)
	go func() { done <- c.composeAt(victim, skey, t1, apart(c.objs[1], t1)) }()
	for i := 0; plan.Parked() == 0; i++ {
		if i > 5000 {
			t.Fatal("the composition never parked")
		}
		time.Sleep(time.Millisecond)
	}
	removed := make(chan linearize.Op, 1)
	go func() {
		v, ok := c.objs[0].Remove(peer, skey)
		removed <- linearize.Op{Name: "remA", Arg: skey, Ret: v, RetOK: ok}
	}()
	var rem linearize.Op
	select {
	case rem = <-removed:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer's remove did not complete beside the parked composition")
	}
	mid := c.state(peer)
	plan.Release()
	var ops []linearize.Op
	select {
	case ops = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the composition did not return after its release")
	}
	if !ops[0].RetOK {
		t.Fatalf("the composition failed: %v", ops)
	}
	st := model.Init()
	for i, o := range append([]linearize.Op{ops[0], rem}, ops[1:]...) {
		next, ok := st.Apply(o)
		if !ok {
			t.Fatalf("%v is not a legal step of the model after %d others", o, i)
		}
		if st = next; i == 1 && st.Key() != mid {
			t.Fatal("beside the parked composition, the objects do not hold the state after it and the peer's remove")
		}
	}
	if c.state(peer) != st.Key() {
		t.Fatal("the objects' contents differ from the model's")
	}
	for i := range c.sides() {
		if err := structure(c.rt, c.objs[i]); err != "" {
			t.Fatalf("%s %c: %s", c.kinds[i].name, 'A'+i, err)
		}
	}
}

// checkSharedWord runs a TransferN of keys 1 and 2 into an empty target
// under two keys its inserts link into one gap: on an unkeyed source the
// two removes already share a word, on an unkeyed target the two
// inserts do. It must fail like an init-phase failure: nothing changes,
// the thread is neither inside a move nor exhausted nor publishing a
// hold or mirror, and its next Move succeeds.
func checkSharedWord(t *testing.T, src, dst kindSpec) {
	c, th := newCell("TransferN", src, dst, core.Config{MaxThreads: 1, ArenaCapacity: 1 << 12})
	c.fill(t, th, false)
	k := uint64(6)
	if m, ok := c.objs[1].(*hashmap.Map); ok {
		for !m.SameChain(5, k) {
			k++
		}
	}
	before := c.state(th)
	if vals, ok := th.TransferN(c.objs[0], c.objs[1], []uint64{1, 2}, []uint64{5, k}); ok || vals != nil {
		t.Fatalf("TransferN = %v, %v, want nil, false", vals, ok)
	}
	if c.state(th) != before {
		t.Fatal("the failed transfer changed the objects")
	}
	if _, _, other := th.PublishedSlots(); th.MoveInFlight() || th.Exhausted() || other != 0 {
		t.Fatalf("in flight=%v exhausted=%v, %d mirror, hold or descriptor slots published; want false, false, 0",
			th.MoveInFlight(), th.Exhausted(), other)
	}
	if _, ok := th.Move(c.objs[0], c.objs[1], 1, 5); !ok {
		t.Fatal("the thread's next Move failed")
	}
}
