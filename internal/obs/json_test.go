package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"
)

// The appenders must write what encoding/json's Marshal writes, byte
// for byte: kvserver's documents are written by them and read by
// encoding/json. Each case is compared with Marshal of a method-free
// value (a string, a float64, spanJSON), so no MarshalJSON that
// delegates to an appender can make a test compare it with itself.

// edgeStrings are the strings whose escaping differs between naive and
// encoding/json's: quotes and backslashes, the HTML-sensitive bytes,
// control bytes with and without a short escape, DEL, U+2028/U+2029,
// multi-byte runes, U+FFFD itself, and invalid UTF-8 (a lone
// continuation byte, a truncated rune, an overlong encoding, a
// surrogate).
var edgeStrings = []string{
	"", "OK", `"`, `\`, `a"b\c`, "<>&", "<script>&amp;</script>",
	"\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "é", "日本語", "😀",
	"\u2028", "\u2029", "a\u2028b\u2029c", "\ufffd",
	"\x80", "a\xffb", "\xe6\x97", "\xc0\xaf", "\xed\xa0\x80", "ok\xf0\x9f\x98",
}

// escapeTokens each need an escape, or come close to needing one.
var escapeTokens = []string{`"`, `\`, "<", ">", "&", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\ufffd"}

// randString draws a string from bytes and runes likely to need an
// escape, mixed with plain ASCII; valid=false adds stray bytes that
// are not UTF-8.
func randString(rng *rand.Rand, valid bool) string {
	var b []byte
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			b = append(b, byte(rng.Intn(0x80)))
		case 1:
			b = append(b, escapeTokens[rng.Intn(len(escapeTokens))]...)
		case 2:
			b = utf8.AppendRune(b, rune(rng.Intn(0x3000)))
		case 3:
			b = utf8.AppendRune(b, rune(0x10000+rng.Intn(0x100)))
		case 4:
			if !valid {
				b = append(b, byte(0x80+rng.Intn(0x80)))
				continue
			}
			fallthrough
		default:
			b = append(b, "abcXYZ 019_-"[rng.Intn(12)])
		}
	}
	return string(b)
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return b
}

func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := AppendJSONString(nil, s), marshal(t, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
		check("x" + string([]byte{byte(b)}) + "y")
	}
	for _, s := range edgeStrings {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(randString(rng, i%2 == 0))
	}
	// It appends: what dst held stays in front.
	if got := string(AppendJSONString([]byte("k:"), "v")); got != `k:"v"` {
		t.Fatalf("AppendJSONString onto k: = %s", got)
	}
}

// edgeFloats sit on both sides of Marshal's switch from 'f' to 'e'
// form (1e-6 and 1e21), at the ends of float64's range, and where 'e'
// form's exponent loses its padding (1e-7, not 1e-07).
var edgeFloats = []float64{
	0, 1, 0.5, 123.456, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 1.2345e21,
	999999999999999999999, 5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64,
	1e300, 1e-300, 2.220446049250313e-16, 703123.4567, 3.0000000000000004,
}

func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		if got, want := AppendJSONFloat(nil, f), marshal(t, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
	for _, f := range edgeFloats {
		for _, g := range []float64{f, -f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			if !math.IsInf(g, 0) { // MaxFloat64's successor
				check(g)
			}
		}
	}
	check(math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		var f float64
		switch i % 3 {
		case 0: // any finite bit pattern
			if f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		case 1: // a latency or a rate
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(12)))
		default: // near the form switch
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(8)-9+15*rng.Intn(2)))
		}
		check(f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(AppendJSONFloat(nil, f)); got != "null" {
			t.Fatalf("AppendJSONFloat(%v) = %s, want null", f, got)
		}
	}
}

// plainSpan is the span's wire form built the way MarshalJSON built it
// before AppendJSON: spanJSON, stages in a map, which encoding/json
// writes with sorted keys.
func plainSpan(s Span) spanJSON {
	j := spanJSON{
		Span: 1, Req: s.Req, TID: s.TID, Worker: s.Worker, Tenant: s.Tenant,
		Op: s.Op, Status: s.Status, StartNS: s.StartNS, WallNS: s.WallNS,
		Stages:    make(map[string]int64, NumStages),
		Publishes: s.Publishes, Helps: s.Helps, Aborts: s.Aborts,
	}
	for st := Stage(0); st < NumStages; st++ {
		j.Stages[st.String()] = s.Stage[st]
	}
	return j
}

// randSpan draws a span over the whole range of each field.
func randSpan(rng *rand.Rand, valid bool) Span {
	sp := Span{
		Req: rng.Uint64(), TID: int32(rng.Uint32()), Worker: int32(rng.Uint32()), Tenant: int32(rng.Uint32()),
		Op: randString(rng, valid), Status: randString(rng, valid),
		StartNS: int64(rng.Uint64()), WallNS: int64(rng.Uint64()),
		Publishes: rng.Uint64(), Helps: rng.Uint64(), Aborts: rng.Uint64(),
	}
	for st := range sp.Stage {
		sp.Stage[st] = int64(rng.Uint64())
	}
	if rng.Intn(4) == 0 { // small values too, the common case
		sp.Req, sp.TID, sp.Tenant, sp.Stage[StageParse] = 1, 0, -1, 0
	}
	return sp
}

func TestSpanAppendJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spans := []Span{{}, {Req: 7, Tenant: -1, Op: "MOVE", Status: "OK", StartNS: 5, WallNS: 30}}
	for _, s := range edgeStrings {
		spans = append(spans, Span{Op: s, Status: s})
	}
	for i := 0; i < 20000; i++ {
		spans = append(spans, randSpan(rng, i%2 == 0))
	}
	for _, sp := range spans {
		want := marshal(t, plainSpan(sp))
		if got := sp.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON(%+v)\n got  %s\n want %s", sp, got, want)
		}
		if got, err := sp.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON(%+v) = %s, %v; want %s", sp, got, err, want)
		}
	}

	// A trace file's span lines are json.Encoder's lines of the same
	// values, and SLOW's exemplars go through the encoder's Marshaler
	// path: both agree too.
	var got, want bytes.Buffer
	if err := WriteSpansJSONL(&got, spans[:500]); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	for _, sp := range spans[:500] {
		if err := enc.Encode(plainSpan(sp)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteSpansJSONL differs from json.Encoder over the same spans")
	}
	if b := marshal(t, spans[:500]); !bytes.Equal(b, marshal(t, plainSpans(spans[:500]))) {
		t.Fatal("json.Marshal of []Span differs from that of the plain spans")
	}
}

func plainSpans(spans []Span) []spanJSON {
	out := make([]spanJSON, len(spans))
	for i, sp := range spans {
		out[i] = plainSpan(sp)
	}
	return out
}

func TestSpanAppendJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		in := randSpan(rng, true)
		var out Span
		if err := out.UnmarshalJSON(in.AppendJSON(nil)); err != nil {
			t.Fatalf("UnmarshalJSON(AppendJSON(%+v)): %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip: got %+v want %+v", out, in)
		}
	}
}
