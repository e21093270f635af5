package kvwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"

	"repro/internal/obs"
)

// Doc.AppendJSON and SlowDoc.AppendJSON must write what encoding/json's
// Marshal writes, byte for byte: kvserver writes STATS and SLOW with
// them, and kvload, bench and tracecheck read both with encoding/json.
// The reference is Marshal of a method-free shadow type, so a
// MarshalJSON that delegates to an appender cannot make a test compare
// the appender with itself.

// plainDoc is Doc without methods; Row, StageRow, Audit and
// RobustCounters have none.
type plainDoc Doc

// plainSpan is a span's wire form as a plain struct, stages in a map.
type plainSpan struct {
	Span      int              `json:"span"`
	Req       uint64           `json:"req"`
	TID       int32            `json:"tid"`
	Worker    int32            `json:"worker"`
	Tenant    int32            `json:"tenant"`
	Op        string           `json:"op"`
	Status    string           `json:"status"`
	StartNS   int64            `json:"start_ns"`
	WallNS    int64            `json:"wall_ns"`
	Stages    map[string]int64 `json:"stages"`
	Publishes uint64           `json:"kcas_publishes"`
	Helps     uint64           `json:"kcas_helps"`
	Aborts    uint64           `json:"kcas_aborts"`
}

type plainSlowDoc struct {
	Dropped   uint64      `json:"dropped"`
	Exemplars []plainSpan `json:"exemplars"`
}

func plainSlow(d SlowDoc) plainSlowDoc {
	p := plainSlowDoc{Dropped: d.Dropped}
	if d.Exemplars != nil {
		p.Exemplars = make([]plainSpan, 0, len(d.Exemplars))
	}
	for _, s := range d.Exemplars {
		ps := plainSpan{
			Span: 1, Req: s.Req, TID: s.TID, Worker: s.Worker, Tenant: s.Tenant,
			Op: s.Op, Status: s.Status, StartNS: s.StartNS, WallNS: s.WallNS,
			Stages:    map[string]int64{},
			Publishes: s.Publishes, Helps: s.Helps, Aborts: s.Aborts,
		}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			ps.Stages[st.String()] = s.Stage[st]
		}
		p.Exemplars = append(p.Exemplars, ps)
	}
	return p
}

func checkDoc(t *testing.T, d Doc) {
	t.Helper()
	want, err := json.Marshal(plainDoc(d))
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if got := d.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("Doc.AppendJSON(%+v)\n got  %s\n want %s", d, got, want)
	}
}

func checkSlow(t *testing.T, d SlowDoc) {
	t.Helper()
	want, err := json.Marshal(plainSlow(d))
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if got := d.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("SlowDoc.AppendJSON(%+v)\n got  %s\n want %s", d, got, want)
	}
}

// edgeStrings need escapes (quotes, backslashes, the HTML-sensitive
// bytes, control bytes, U+2028/U+2029) or are not UTF-8.
var edgeStrings = []string{
	"", "all", "kvserver", `"`, `\`, "<>&", "\b\f\n\r\t\x00\x1f\x7f",
	"\u2028\u2029", "日本語😀", "\ufffd", "\x80", "a\xffb", "\xe6\x97", "\xed\xa0\x80",
}

// edgeFloats sit on both sides of Marshal's 'f'/'e' form switch and at
// the ends of float64's range.
var edgeFloats = []float64{
	0, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 5e-324, math.MaxFloat64, 0.1, 703123.456,
	-1e-6, -9.99e-7, -1e20, -1e21, -5e-324, -math.MaxFloat64, math.Copysign(0, -1),
}

type gen struct{ *rand.Rand }

func (g gen) str() string {
	if g.Intn(3) == 0 {
		return edgeStrings[g.Intn(len(edgeStrings))]
	}
	var b []byte
	for n := g.Intn(10); n > 0; n-- {
		switch g.Intn(4) {
		case 0:
			b = append(b, byte(g.Intn(0x100)))
		case 1:
			b = utf8.AppendRune(b, rune(g.Intn(0x3000)))
		default:
			b = append(b, byte('a'+g.Intn(26)))
		}
	}
	return string(b)
}

func (g gen) float() float64 {
	switch g.Intn(3) {
	case 0:
		return edgeFloats[g.Intn(len(edgeFloats))]
	case 1:
		return g.Float64() * math.Pow(10, float64(g.Intn(30)-10))
	}
	f := math.Float64frombits(g.Uint64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 1
	}
	return f
}

// u64 returns 0 a quarter of the time (omitempty's case), else any value.
func (g gen) u64() uint64 {
	if g.Intn(4) == 0 {
		return 0
	}
	return g.Uint64() >> g.Intn(64)
}

func (g gen) i64() int64 { return int64(g.u64()) }

func (g gen) doc() Doc {
	d := Doc{
		HostCPUs: int(g.i64()), Contended: g.Intn(2) == 0,
		RateRPS: g.float(), DurationMS: g.float(), Conns: int(g.i64()),
	}
	if g.Intn(2) == 0 {
		d.RateRPS, d.DurationMS = 0, 0
	}
	if g.Intn(2) == 0 {
		d.Audit = &Audit{
			Pass: g.Intn(2) == 0, ExpectMapCount: g.u64(), GotMapCount: g.u64(),
			ExpectMapSum: g.u64(), GotMapSum: g.u64(), ExpectQueueCount: g.u64(), GotQueueCount: g.u64(),
		}
	}
	if g.Intn(2) == 0 {
		d.Robust = &RobustCounters{
			Busy: g.u64(), Timeouts: g.u64(), Retries: g.u64(), Ambiguous: g.u64(),
			SlowClients: g.u64(), LostWorkers: g.u64(), Drained: g.Intn(2) == 0,
		}
	}
	switch g.Intn(4) {
	case 0: // nil
	case 1:
		d.Obs = map[string]uint64{}
	default:
		d.Obs = map[string]uint64{}
		for n := g.Intn(8); n >= 0; n-- {
			d.Obs[g.str()] = g.u64()
		}
	}
	if n := g.Intn(4) - 1; n >= 0 {
		d.Stages = make([]StageRow, n)
		for i := range d.Stages {
			d.Stages[i] = StageRow{Stage: g.str(), Count: g.u64(), MeanNS: g.float(),
				P50NS: g.i64(), P99NS: g.i64(), P999NS: g.i64(), MaxNS: g.i64()}
		}
	}
	if n := g.Intn(5) - 1; n >= 0 {
		d.Rows = make([]Row, n)
		for i := range d.Rows {
			d.Rows[i] = Row{Figure: g.str(), Tenant: g.str(), Op: g.str(), Threads: int(g.i64()),
				Ops: g.u64(), OpsPerSec: g.float(), MeanNS: g.float(),
				P50NS: g.i64(), P99NS: g.i64(), P999NS: g.i64(), MaxNS: g.i64(), Late: g.u64()}
		}
	}
	return d
}

func (g gen) slow() SlowDoc {
	d := SlowDoc{Dropped: g.u64()}
	if n := g.Intn(5) - 1; n >= 0 {
		d.Exemplars = make([]obs.Span, n)
		for i := range d.Exemplars {
			sp := obs.Span{Req: g.u64(), TID: int32(g.i64()), Worker: int32(g.i64()), Tenant: int32(g.i64()),
				Op: g.str(), Status: g.str(), StartNS: g.i64(), WallNS: g.i64(),
				Publishes: g.u64(), Helps: g.u64(), Aborts: g.u64()}
			for st := range sp.Stage {
				sp.Stage[st] = g.i64()
			}
			d.Exemplars[i] = sp
		}
	}
	return d
}

// TestDocAppendJSONMatchesMarshal: named edge cases, then 20 000 random
// documents of each kind.
func TestDocAppendJSONMatchesMarshal(t *testing.T) {
	// nil against empty, for every list and the obs map.
	checkDoc(t, Doc{})
	checkDoc(t, Doc{Rows: []Row{}, Stages: []StageRow{}, Obs: map[string]uint64{}})
	checkSlow(t, SlowDoc{})
	checkSlow(t, SlowDoc{Exemplars: []obs.Span{}})

	// Every omitempty field at zero (above) and non-zero.
	checkDoc(t, Doc{RateRPS: 2000, DurationMS: 1.5, Conns: 4, Audit: &Audit{}, Robust: &RobustCounters{},
		Obs: map[string]uint64{"x": 0}, Stages: []StageRow{{}}, Rows: []Row{{}, {Late: 3}}})

	// Floats around the 'f'/'e' switch in every float field.
	for _, f := range edgeFloats {
		checkDoc(t, Doc{RateRPS: f, DurationMS: f, Stages: []StageRow{{MeanNS: f}}, Rows: []Row{{OpsPerSec: f, MeanNS: f}}})
	}

	// Strings that need escapes in every string field and as obs keys.
	for _, s := range edgeStrings {
		checkDoc(t, Doc{Obs: map[string]uint64{s: 1, "a" + s: 2}, Stages: []StageRow{{Stage: s}},
			Rows: []Row{{Figure: s, Tenant: s, Op: s}}})
		checkSlow(t, SlowDoc{Exemplars: []obs.Span{{Op: s, Status: s}}})
	}

	// Map keys inserted against their sorted order.
	obsMap := map[string]uint64{}
	for _, k := range []string{"z", "stage_write_ns", "kcas_helps_total", "B", "a_", "a", ""} {
		obsMap[k] = uint64(len(k))
	}
	checkDoc(t, Doc{Obs: obsMap})

	// A document as kvserver builds it.
	d := NewDoc()
	d.Robust = &RobustCounters{Busy: 1, Drained: true}
	d.Obs = map[string]uint64{"ops_total": 9, "busy_total": 1}
	d.Stages = []StageRow{{Stage: "queue", Count: 3, MeanNS: 1234.5, P50NS: 1000, MaxNS: 4000}}
	d.Rows = []Row{{Figure: "kvserver", Tenant: "0", Op: "GET", Threads: 16, Ops: 3, OpsPerSec: 12.345678, MeanNS: 811.3333333333334}}
	checkDoc(t, d)

	g := gen{rand.New(rand.NewSource(1))}
	for i := 0; i < 20000; i++ {
		checkDoc(t, g.doc())
		checkSlow(t, g.slow())
	}
}

// TestDocAppendJSONAppends: the appenders append to what dst holds,
// and a NaN, which Marshal refuses, is written as null.
func TestDocAppendJSONAppends(t *testing.T) {
	d := Doc{Rows: []Row{{MeanNS: math.NaN()}}}
	got := string(d.AppendJSON([]byte("OK ")))
	want := `OK {"host_cpus":0,"contended":false,"rows":[{"figure":"","tenant":"","op":"","threads":0,"ops":0,"ops_per_sec":0,"mean_ns":null,"p50_ns":0,"p99_ns":0,"p999_ns":0,"max_ns":0}]}`
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	var back Doc
	if err := json.Unmarshal([]byte(got[3:]), &back); err != nil {
		t.Fatalf("null float does not decode: %v", err)
	}
	slow := SlowDoc{Dropped: 2}
	if got := string(slow.AppendJSON([]byte("OK "))); got != `OK {"dropped":2,"exemplars":null}` {
		t.Fatalf("SlowDoc: %s", got)
	}
}
