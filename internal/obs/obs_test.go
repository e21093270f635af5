package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryStripesAndFuncs(t *testing.T) {
	r := NewRegistry(4)
	for tid := 0; tid < 4; tid++ {
		for i := 0; i < tid+1; i++ {
			r.Inc(tid, KCASHelp)
		}
	}
	if got := r.Value(KCASHelp); got != 1+2+3+4 {
		t.Fatalf("Value(KCASHelp) = %d, want 10", got)
	}
	// Two funcs under one name are summed; a separate name stands alone.
	r.AddFunc("map_grows_total", func() uint64 { return 7 })
	r.AddFunc("map_grows_total", func() uint64 { return 5 })
	r.AddFunc("fault_fired_total", func() uint64 { return 3 })
	s := r.Snapshot()
	if got := s.Get("kcas_helps_total"); got != 10 {
		t.Fatalf("snapshot kcas_helps_total = %d, want 10", got)
	}
	if got := s.Get("map_grows_total"); got != 12 {
		t.Fatalf("snapshot map_grows_total = %d, want 12", got)
	}
	if got := s.Get("fault_fired_total"); got != 3 {
		t.Fatalf("snapshot fault_fired_total = %d, want 3", got)
	}
	// Zero-valued fixed counters are still present: absent must not
	// alias zero.
	if _, ok := s.Counters["kcas_aborts_total"]; !ok {
		t.Fatal("zero-valued fixed counter missing from snapshot")
	}
}

func TestRegistryNilIsNoop(t *testing.T) {
	var r *Registry
	r.Inc(0, KCASPublish) // must not panic
	r.AddFunc("x_total", func() uint64 { return 1 })
	if got := r.Value(KCASPublish); got != 0 {
		t.Fatalf("nil Value = %d", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatalf("nil snapshot has %d series", len(s.Counters))
	}
}

func TestRegistryIncAllocationFree(t *testing.T) {
	r := NewRegistry(2)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Inc(1, KCASPublish)
		r.Inc(1, KCASCommit)
	}); allocs != 0 {
		t.Fatalf("Inc allocates %v per run, want 0", allocs)
	}
}

func TestSnapshotMergeAndSub(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{"x_total": 3, "y_total": 1}}
	b := Snapshot{Counters: map[string]uint64{"x_total": 2, "z_total": 5}}
	a.Merge(b)
	if a.Get("x_total") != 5 || a.Get("y_total") != 1 || a.Get("z_total") != 5 {
		t.Fatalf("merge wrong: %v", a.Counters)
	}
	d := a.Sub(Snapshot{Counters: map[string]uint64{"x_total": 1, "y_total": 9}})
	if d.Get("x_total") != 4 {
		t.Fatalf("sub x_total = %d, want 4", d.Get("x_total"))
	}
	// A regressed series clamps to zero rather than wrapping.
	if d.Get("y_total") != 0 {
		t.Fatalf("sub regressed y_total = %d, want 0", d.Get("y_total"))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(1)
	r.Inc(0, KCASHelp)
	r.AddFunc("busy_total", func() uint64 { return 0 })
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE kcas_helps_total counter\nkcas_helps_total 1\n",
		"busy_total 0\n", // zero-valued series emitted
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("prometheus output not terminated by # EOF:\n%s", out)
	}
	// Names sorted.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var names []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "#") {
			names = append(names, strings.Fields(l)[0])
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names out of order: %v", names)
		}
	}
}

func TestTracerRecordDrain(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Record(0, EvPublish, -1, 11)
	tr.Record(1, EvHelp, 0, 11)
	tr.Record(0, EvCommit, -1, 11)
	evs := tr.Drain()
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatal("drained events not time-sorted")
		}
	}
	var help *Event
	for i := range evs {
		if evs[i].Kind == EvHelp {
			help = &evs[i]
		}
	}
	if help == nil || help.TID != 1 || help.Peer != 0 {
		t.Fatalf("help event attribution wrong: %+v", help)
	}
	if again := tr.Drain(); len(again) != 0 {
		t.Fatalf("second drain returned %d events, want 0", len(again))
	}
}

func TestTracerOverflowCountsDrops(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(0, EvRecycle, -1, uint64(i))
	}
	evs := tr.Drain()
	if len(evs) != 4 {
		t.Fatalf("drained %d events from a 4-slot ring, want 4", len(evs))
	}
	// The survivors are the newest four.
	if evs[0].Ref != 6 || evs[3].Ref != 9 {
		t.Fatalf("ring kept wrong events: %+v", evs)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
}

func TestTracerRecordAllocationFree(t *testing.T) {
	tr := NewTracer(1, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(0, EvPublish, -1, 1)
	}); allocs != 0 {
		t.Fatalf("Record allocates %v per run, want 0", allocs)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(4, 256)
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Record(tid, EvHelp, int32((tid+1)%4), uint64(i))
			}
		}(tid)
	}
	wg.Wait()
	if got := len(tr.Drain()); got != 800 {
		t.Fatalf("drained %d events, want 800", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{TS: 10, Kind: EvPublish, TID: 0, Peer: -1, Ref: 7},
		{TS: 20, Kind: EvHelp, TID: 2, Peer: 0, Ref: 7},
		{TS: 30, Kind: EvMapGrow, TID: 1, Peer: -1, Ref: 0},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := ReadJSONL(strings.NewReader(`{"ts_ns":1,"ev":"nonsense","tid":0,"peer":0,"ref":0}`)); err == nil {
		t.Fatal("unknown event kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{broken`)); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []Event{
		{TS: 1500, Kind: EvHelp, TID: 3, Peer: 1, Ref: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"name":"help"`, `"tid":3`, `"ts":1.500`, `"peer":1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %q:\n%s", want, out)
		}
	}
}

func TestObsNewAndNilAccessors(t *testing.T) {
	if o := New(Config{}, 4); o != nil {
		t.Fatal("disabled config built an Obs")
	}
	var o *Obs
	if o.Metrics() != nil || o.Tracer() != nil {
		t.Fatal("nil Obs accessors not nil")
	}
	o = New(Config{Metrics: true}, 4)
	if o.Metrics() == nil || o.Tracer() != nil {
		t.Fatal("metrics-only config wrong")
	}
	o = New(Config{Trace: true}, 4)
	if o.Metrics() != nil || o.Tracer() == nil {
		t.Fatal("trace-only config wrong")
	}
}
