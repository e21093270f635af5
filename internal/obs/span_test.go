package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/verify"
)

func TestStageNamesRoundTrip(t *testing.T) {
	for st := Stage(0); st < NumStages; st++ {
		got, ok := StageFromString(st.String())
		if !ok || got != st {
			t.Fatalf("StageFromString(%q) = %v,%v, want %v", st.String(), got, ok, st)
		}
	}
	if _, ok := StageFromString("nonsense"); ok {
		t.Fatal("unknown stage name resolved")
	}
}

func TestSpanDominant(t *testing.T) {
	var sp Span
	sp.Stage[StageQueue] = 10
	sp.Stage[StageExec] = 500
	sp.Stage[StageWrite] = 499
	if got := sp.Dominant(); got != StageExec {
		t.Fatalf("Dominant = %v, want execute", got)
	}
	// Ties resolve to the earliest stage; the zero span is all-queue.
	var tie Span
	tie.Stage[StageParse] = 7
	tie.Stage[StageDegrade] = 7
	if got := tie.Dominant(); got != StageParse {
		t.Fatalf("tie Dominant = %v, want parse", got)
	}
	if got := (Span{}).Dominant(); got != StageQueue {
		t.Fatalf("zero-span Dominant = %v, want queue", got)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{
		Req: 42, TID: 3, Worker: 1, Tenant: 2,
		Op: "MOVE", Status: "OK", StartNS: 1000, WallNS: 5500,
		Publishes: 4, Helps: 1, Aborts: 2,
	}
	in.Stage[StageQueue] = 100
	in.Stage[StageExec] = 5000
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"span":1`) {
		t.Fatalf("span JSON missing the record discriminator: %s", b)
	}
	var out Span
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	// Unknown stage names are rejected, like unknown event kinds.
	if err := new(Span).UnmarshalJSON([]byte(`{"span":1,"req":1,"stages":{"bogus":5}}`)); err == nil {
		t.Fatal("unknown stage name accepted")
	}
}

func TestSpansFinishExemplarsAndThreshold(t *testing.T) {
	s := NewSpans(2, 8, 3)
	if got := s.NextReq(); got != 1 {
		t.Fatalf("first NextReq = %d, want 1 (0 is the no-request sentinel)", got)
	}
	// Threshold 0 admits everything; topK=3 keeps the 3 slowest.
	for i, wall := range []int64{100, 900, 300, 700, 500} {
		s.Finish(i%2, Span{Req: uint64(i + 1), WallNS: wall})
	}
	ex := s.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("retained %d exemplars, want 3", len(ex))
	}
	if ex[0].WallNS != 900 || ex[1].WallNS != 700 || ex[2].WallNS != 500 {
		t.Fatalf("exemplars not the slowest-first top 3: %+v", ex)
	}

	// Each worker's gate is its own K-th slowest span: once worker 0
	// holds K spans, a faster one is refused and a slower one displaces
	// the K-th, which moves the gate up.
	s2 := NewSpans(1, 8, 2)
	s2.Finish(0, Span{Req: 1, WallNS: 500})
	s2.Finish(0, Span{Req: 2, WallNS: 700})
	s2.Finish(0, Span{Req: 3, WallNS: 400}) // below the gate (500)
	s2.Finish(0, Span{Req: 4, WallNS: 600}) // displaces 500; gate 600
	s2.Finish(0, Span{Req: 5, WallNS: 550}) // below the new gate
	ex2 := s2.Exemplars()
	if len(ex2) != 2 || ex2[0].Req != 2 || ex2[1].Req != 4 {
		t.Fatalf("gate wrong: %+v", ex2)
	}
	// The refused spans still reached the completed ring.
	if got := len(s2.Completed()); got != 5 {
		t.Fatalf("completed ring holds %d spans, want 5", got)
	}
}

// TestExemplarsAreTheKSlowest: whatever the regime, Exemplars is
// exactly the K slowest spans finished so far across all workers. A
// slow regime lands unevenly on the workers, a fast regime follows
// (it displaces nothing), and then one span slower than a retained
// exemplar but not the slowest, on a worker that retained none of the
// slow ones.
func TestExemplarsAreTheKSlowest(t *testing.T) {
	const workers, k = 3, 4
	s := NewSpans(workers, 16, k)
	var all []int64
	finish := func(w int, wall int64) {
		all = append(all, wall)
		s.Finish(w, Span{Req: uint64(len(all)), Worker: int32(w), WallNS: wall})
	}
	check := func(phase string) {
		t.Helper()
		want := append([]int64(nil), all...)
		sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
		if len(want) > k {
			want = want[:k]
		}
		got := s.Exemplars()
		if len(got) != len(want) {
			t.Fatalf("%s: %d exemplars, want %d", phase, len(got), len(want))
		}
		for i := range want {
			if got[i].WallNS != want[i] {
				t.Fatalf("%s: exemplar %d is %d ns, want %d (all: %+v)", phase, i, got[i].WallNS, want[i], got)
			}
		}
	}
	// Slow regime: every third span on worker 2, the rest on worker 0,
	// so worker 0 alone holds more than K of the slowest.
	for i := int64(0); i < 40; i++ {
		w := 0
		if i%3 == 0 {
			w = 2
		}
		finish(w, 10_000+10*((i*37)%41))
	}
	check("slow regime")
	// Fast regime: every worker finishes its own spans at once while a
	// reader merges the exemplars, as SLOW does under load.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		walls := make([]int64, 0, 20)
		for i := int64(0); i < 20; i++ {
			walls = append(walls, 100+int64(w)*20+i)
		}
		all = append(all, walls...)
		wg.Add(1)
		go func(w int, walls []int64) {
			defer wg.Done()
			for _, wall := range walls {
				s.Finish(w, Span{Worker: int32(w), WallNS: wall})
			}
		}(w, walls)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if ex := s.Exemplars(); len(ex) != k {
				t.Errorf("mid-regime Exemplars returned %d spans, want %d", len(ex), k)
			}
		}
	}()
	wg.Wait()
	check("fast regime")
	// One span slower than the K-th slowest retained exemplar, on
	// worker 1, which holds only fast spans.
	ex := s.Exemplars()
	finish(1, ex[k-1].WallNS+1)
	if ex[0].WallNS <= ex[k-1].WallNS+1 {
		t.Fatalf("fixture: the new span must not be the slowest")
	}
	check("one slower span")
}

func TestSpansCompletedAndDropped(t *testing.T) {
	s := NewSpans(2, 4, 2)
	for i := 0; i < 6; i++ { // ring size 4: two oldest overwritten
		s.Finish(0, Span{Req: uint64(i + 1), StartNS: int64(100 - i)})
	}
	s.Finish(1, Span{Req: 100, StartNS: 1})
	got := s.Completed()
	if len(got) != 5 {
		t.Fatalf("Completed returned %d spans, want 5 (4-slot ring + 1)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].StartNS < got[i-1].StartNS {
			t.Fatal("Completed not sorted by StartNS")
		}
	}
	if d := s.Dropped(); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
	// Completed does not reset: a second read sees the same spans.
	if again := s.Completed(); len(again) != 5 {
		t.Fatalf("second Completed returned %d spans, want 5", len(again))
	}
}

// TestSpansKeepCompletedOnlyForTrace: obs.New builds the completed-span
// ring only with Trace, the one configuration whose trace dump reads it;
// without it Finish still feeds the exemplars.
func TestSpansKeepCompletedOnlyForTrace(t *testing.T) {
	for _, trace := range []bool{false, true} {
		s := New(Config{Spans: true, Trace: trace}, 1).Spans()
		for i := 0; i < DefaultSpanBuf+3; i++ {
			s.Finish(0, Span{Req: uint64(i + 1), WallNS: int64(i)})
		}
		completed, dropped := len(s.Completed()), s.Dropped()
		if trace && (completed != DefaultSpanBuf || dropped != 3) {
			t.Errorf("with Trace: %d completed, %d dropped; want %d and 3", completed, dropped, DefaultSpanBuf)
		}
		if !trace && (completed != 0 || dropped != 0) {
			t.Errorf("without Trace: %d completed, %d dropped; want none", completed, dropped)
		}
		if ex := s.Exemplars(); len(ex) != DefaultSpanTopK || ex[0].WallNS != DefaultSpanBuf+2 {
			t.Errorf("Trace %v: %d exemplars, want the %d slowest", trace, len(ex), DefaultSpanTopK)
		}
	}
}

func TestSpansNilSafe(t *testing.T) {
	var s *Spans
	s.Finish(0, Span{})
	if s.NextReq() != 0 || s.Dropped() != 0 ||
		s.Exemplars() != nil || s.Completed() != nil || s.SinceEpoch(time.Now()) != 0 {
		t.Fatal("nil Spans must be inert")
	}
}

func TestSpansFinishAllocationFree(t *testing.T) {
	s := NewSpans(1, 64, 4)
	var sp Span
	sp.WallNS = 100
	if allocs := testing.AllocsPerRun(1000, func() {
		sp.WallNS++ // every span displaces the K-th slowest: the rescan path
		s.Finish(0, sp)
	}); allocs != 0 {
		t.Fatalf("Finish allocates %v per run, want 0", allocs)
	}
}

// spansFinishOp returns one Finish as a kvserver worker makes it with
// default flags: a recorder as obs.New builds it without Trace (no
// completed ring) whose K slowest already hold slower spans, so the span
// is refused by one compare, the common case.
func spansFinishOp() func() {
	s := New(Config{Spans: true}, 1).Spans()
	sp := Span{Req: 1, Tenant: 0, Op: "MOVE", Status: "OK", WallNS: 1 << 20}
	for range DefaultSpanTopK {
		s.Finish(0, sp)
	}
	sp.WallNS = 1000
	sp.Stage[StageExec] = 600
	return func() {
		sp.Req++
		s.Finish(0, sp)
	}
}

// BenchmarkSpansFinish times Spans.Finish on the default path
// (spansFinishOp).
func BenchmarkSpansFinish(b *testing.B) {
	op := spansFinishOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestSpansFinishNoAllocs: the probe runs without allocating.
func TestSpansFinishNoAllocs(t *testing.T) {
	if n := verify.Mallocs(10_000, 100_000, spansFinishOp()); n != 0 {
		t.Errorf("Finish: %d allocations over 100000 calls, want 0", n)
	}
}

func TestReadTraceMixed(t *testing.T) {
	events := []Event{
		{TS: 10, Kind: EvPublish, TID: 0, Peer: -1, Ref: 7, Req: 5},
		{TS: 20, Kind: EvCommit, TID: 0, Peer: -1, Ref: 7, Req: 5},
	}
	sp := Span{Req: 5, TID: 0, Op: "MOVE", Status: "OK", StartNS: 5, WallNS: 30}
	sp.Stage[StageExec] = 25

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansJSONL(&buf, []Span{sp}); err != nil {
		t.Fatal(err)
	}

	evs, spans, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || len(spans) != 1 {
		t.Fatalf("ReadTrace: %d events, %d spans, want 2/1", len(evs), len(spans))
	}
	if evs[0] != events[0] || evs[1] != events[1] {
		t.Fatalf("events corrupted: %+v", evs)
	}
	if spans[0] != sp {
		t.Fatalf("span corrupted: got %+v want %+v", spans[0], sp)
	}

	// Span lines do not leak into the events, in either order.
	var rev bytes.Buffer
	if err := WriteSpansJSONL(&rev, []Span{sp}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&rev, events); err != nil {
		t.Fatal(err)
	}
	if evs, spans, err := ReadTrace(&rev); err != nil || len(evs) != 2 || len(spans) != 1 {
		t.Fatalf("ReadTrace spans first: %d events, %d spans, %v; want 2/1", len(evs), len(spans), err)
	}
}

func TestWriteChromeTraceWith(t *testing.T) {
	sp := Span{Req: 9, TID: 2, Op: "MOVE", Status: "OK", StartNS: 1000, WallNS: 4000}
	sp.Stage[StageParse] = 1000
	sp.Stage[StageExec] = 3000
	var buf bytes.Buffer
	err := WriteChromeTraceWith(&buf,
		[]Event{{TS: 1500, Kind: EvHelp, TID: 3, Peer: 1, Ref: 42, Req: 9}},
		[]Span{sp})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, out)
	}
	if len(parsed.TraceEvents) != 3 { // 1 instant + 2 stage slices
		t.Fatalf("chrome trace has %d records, want 3:\n%s", len(parsed.TraceEvents), out)
	}
	for _, want := range []string{
		`"name":"help"`, `"ph":"i"`,
		`"name":"parse"`, `"name":"execute"`, `"ph":"X"`,
		`"ts":1.000,"dur":1.000`, // parse at StartNS
		`"ts":2.000,"dur":3.000`, // execute at the cumulative offset
		`"req":9`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %q:\n%s", want, out)
		}
	}
}

// TestTracerSetRequestStamping: events carry the thread's current
// request id between SetRequest calls, and the id survives the JSONL
// round trip.
func TestTracerSetRequestStamping(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Record(0, EvPublish, -1, 1) // before any request: req 0
	tr.SetRequest(0, 77)
	tr.Record(0, EvHelp, 1, 2)
	tr.Record(0, EvCommit, -1, 2)
	tr.SetRequest(0, 0)
	tr.Record(0, EvRecycle, -1, 2)
	tr.Record(1, EvPublish, -1, 3) // other thread: unaffected

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	evs, _, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[EventKind]uint64{EvPublish: 0, EvHelp: 77, EvCommit: 77, EvRecycle: 0}
	for _, ev := range evs {
		if ev.TID == 0 {
			if got := ev.Req; got != want[ev.Kind] {
				t.Fatalf("%v stamped req %d, want %d", ev.Kind, got, want[ev.Kind])
			}
		} else if ev.Req != 0 {
			t.Fatalf("thread 1 event stamped req %d, want 0", ev.Req)
		}
	}
}

// TestTracerDrainOrderingAcrossWrappedRings: one ring wraps (its oldest
// survivors are late events), another does not; the merged drain must
// still be globally time-sorted.
func TestTracerDrainOrderingAcrossWrappedRings(t *testing.T) {
	tr := NewTracer(2, 4)
	// Thread 0 records 10 events (ring wraps: keeps the newest 4);
	// thread 1 records 2 early events. Real timestamps interleave.
	for i := 0; i < 2; i++ {
		tr.Record(1, EvPublish, -1, uint64(i))
	}
	for i := 0; i < 10; i++ {
		tr.Record(0, EvRecycle, -1, uint64(100+i))
	}
	evs := tr.Drain()
	if len(evs) != 6 {
		t.Fatalf("drained %d events, want 6 (4 survivors + 2)", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("drain not time-sorted at %d: %+v", i, evs)
		}
	}
	// The wrapped ring's survivors are its newest four.
	var refs []uint64
	for _, ev := range evs {
		if ev.TID == 0 {
			refs = append(refs, ev.Ref)
		}
	}
	if len(refs) != 4 || refs[0] != 106 || refs[3] != 109 {
		t.Fatalf("wrapped ring kept %v, want [106..109]", refs)
	}
}

// TestChromeTraceAfterDrops: Chrome conversion of a drain that lost
// events must stay valid JSON and carry exactly the survivors.
func TestChromeTraceAfterDrops(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 9; i++ {
		tr.Record(0, EvAbort, -1, uint64(i))
	}
	evs := tr.Drain()
	if tr.Dropped() == 0 {
		t.Fatal("expected drops")
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceWith(&buf, evs, nil); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace after drops not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 4 {
		t.Fatalf("chrome trace has %d records, want the 4 survivors", len(parsed.TraceEvents))
	}
}

func TestObsSpansConfig(t *testing.T) {
	o := New(Config{Spans: true}, 4)
	if o == nil || o.Spans() == nil {
		t.Fatal("spans-only config built no span recorder")
	}
	if o.Metrics() != nil || o.Tracer() != nil {
		t.Fatal("spans-only config built other surfaces")
	}
	var nilObs *Obs
	if nilObs.Spans() != nil {
		t.Fatal("nil Obs Spans() not nil")
	}
	if !(Config{Spans: true}).Enabled() {
		t.Fatal("Spans alone must enable the Obs layer")
	}
	// The tracer and span recorder share one epoch: a span stamped "now"
	// and an event recorded "now" land at comparable offsets.
	o2 := New(Config{Trace: true, Spans: true}, 1)
	o2.Tracer().Record(0, EvPublish, -1, 1)
	evTS := o2.Tracer().Drain()[0].TS
	spTS := o2.Spans().SinceEpoch(time.Now())
	if diff := spTS - evTS; diff < 0 || diff > int64(time.Second) {
		t.Fatalf("span/event timelines diverge: event %dns, span %dns", evTS, spTS)
	}
}
