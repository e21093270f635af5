package kvwire

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRequestRoundTrip serializes every request kind and parses it
// back — the property that keeps kvserver and kvload on one grammar.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Tenant: 1, Keys: []uint64{7}},
		{Op: OpPut, Tenant: 0, Keys: []uint64{9}, Val: 123456789},
		{Op: OpDel, Tenant: 2, Keys: []uint64{0}},
		{Op: OpPush, Tenant: 2, Val: 42},
		{Op: OpPop, Tenant: 0},
		{Op: OpMove, Tenant: 0, DTenant: 2, Keys: []uint64{5}, TKeys: []uint64{6}},
		{Op: OpXfer, Tenant: 1, DTenant: 0, Keys: []uint64{1, 2, 3}, TKeys: []uint64{4, 5, 6}},
		{Op: OpDrain, Tenant: 2, DTenant: 1, N: 16},
		{Op: OpStats}, {Op: OpAudit}, {Op: OpPing},
	}
	for _, want := range reqs {
		line := strings.TrimSuffix(string(want.Append(nil)), "\n")
		got, err := ParseRequest(line, 3)
		if err != nil {
			t.Fatalf("ParseRequest(%q): %v", line, err)
		}
		if got.Op != want.Op || got.Tenant != want.Tenant || got.DTenant != want.DTenant ||
			got.Val != want.Val || got.N != want.N ||
			len(got.Keys) != len(want.Keys) || len(got.TKeys) != len(want.TKeys) {
			t.Fatalf("round trip %q: got %+v want %+v", line, got, want)
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] {
				t.Fatalf("round trip %q: keys %v != %v", line, got.Keys, want.Keys)
			}
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	bad := []string{
		"",
		"FLY 0 1",
		"GET 0",                         // missing key
		"GET 3 1",                       // tenant out of range
		"GET -1 1",                      // negative tenant
		"PUT 0 1",                       // missing value
		"MOVE 1 1 2 3",                  // same tenant
		"XFER 0 1 1,2 1",                // list length mismatch
		"XFER 0 1 1,2,3,4,5 6,7,8,9,10", // too many pairs
		"DRAIN 0 1 0",                   // n < 1
		"DRAIN 0 1 1025",                // n > MaxDrainN
		"DRAIN 0 1 9223372036854775807", // n > MaxDrainN (was a server panic)
		"DRAIN 0 0 4",                   // same tenant
		"STATS now",                     // junk argument
		"GET 0 notanumber",
	}
	for _, line := range bad {
		if _, err := ParseRequest(line, 3); err == nil {
			t.Errorf("ParseRequest(%q) unexpectedly succeeded", line)
		}
	}
}

func TestParseResponse(t *testing.T) {
	r, err := ParseResponse("OK 17", true)
	if err != nil || !r.OK() || len(r.Vals) != 1 || r.Vals[0] != 17 {
		t.Fatalf("OK 17: %+v, %v", r, err)
	}
	r, err = ParseResponse("OK 1,2,3", true)
	if err != nil || len(r.Vals) != 3 || r.Vals[2] != 3 {
		t.Fatalf("OK 1,2,3: %+v, %v", r, err)
	}
	r, err = ParseResponse("OK 5 10 2", true) // AUDIT shape
	if err != nil || len(r.Vals) != 3 {
		t.Fatalf("AUDIT: %+v, %v", r, err)
	}
	r, err = ParseResponse(`OK {"rows":[]}`, false)
	if err != nil || !r.OK() || r.Raw != `{"rows":[]}` {
		t.Fatalf("STATS: %+v, %v", r, err)
	}
	r, err = ParseResponse("NF", true)
	if err != nil || r.OK() {
		t.Fatalf("NF: %+v, %v", r, err)
	}
	r, err = ParseResponse("ERR bad tenant", true)
	if err != nil || r.Raw != "bad tenant" {
		t.Fatalf("ERR: %+v, %v", r, err)
	}
	if _, err = ParseResponse("WAT", true); err == nil {
		t.Fatal("unknown status must error")
	}
}

// TestDegradationStatuses: BUSY and TIMEOUT are valid, non-OK,
// retryable responses — the grammar contract the server's shedding
// paths and kvload's retry loop both build on.
func TestDegradationStatuses(t *testing.T) {
	for _, status := range []string{"BUSY", "TIMEOUT"} {
		r, err := ParseResponse(status, true)
		if err != nil {
			t.Fatalf("ParseResponse(%q): %v", status, err)
		}
		if r.OK() {
			t.Fatalf("%s must not parse as success", status)
		}
		if !r.Retryable() {
			t.Fatalf("%s must be retryable", status)
		}
	}
	for _, status := range []string{"OK 1", "NF", "EXISTS", "FAIL", "ERR nope"} {
		r, err := ParseResponse(status, true)
		if err != nil {
			t.Fatalf("ParseResponse(%q): %v", status, err)
		}
		if r.Retryable() {
			t.Fatalf("%q must not be retryable", status)
		}
	}
}

// TestRobustCountersRoundTrip: the robust block survives a JSON round
// trip with every field intact, and zero-valued fields stay present in
// the encoding (chaos assertions grep exact counts; absent must not
// alias zero).
func TestRobustCountersRoundTrip(t *testing.T) {
	doc := NewDoc()
	doc.Robust = &RobustCounters{
		Busy: 3, Timeouts: 2, Retries: 7, Ambiguous: 1,
		Shed: 11, ShedLevel: 2, SlowClients: 1, LostWorkers: 1, Drained: true,
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Doc
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Robust == nil || *back.Robust != *doc.Robust {
		t.Fatalf("robust block did not round-trip: %+v vs %+v", back.Robust, doc.Robust)
	}
	zero, err := json.Marshal(Doc{Robust: &RobustCounters{}})
	if err != nil {
		t.Fatalf("marshal zero: %v", err)
	}
	for _, field := range []string{`"busy":0`, `"shed":0`, `"lost_workers":0`, `"drained":false`} {
		if !strings.Contains(string(zero), field) {
			t.Errorf("zero-valued robust encoding missing %s: %s", field, zero)
		}
	}
	if doc.Audit != nil {
		t.Fatal("NewDoc must not pre-fill an audit")
	}
}

// TestNewDocContendedFlag pins the honesty guard every report carries:
// a process with one schedulable CPU marks its document uncontended,
// and the field serializes even when false (consumers distinguish
// "uncontended" from "flag missing").
func TestNewDocContendedFlag(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	solo := NewDoc()
	if solo.Contended {
		t.Fatal("GOMAXPROCS=1 must report an uncontended run")
	}
	if solo.HostCPUs != runtime.NumCPU() {
		t.Fatalf("host_cpus %d, want %d", solo.HostCPUs, runtime.NumCPU())
	}
	blob, err := json.Marshal(solo)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"contended":false`) {
		t.Fatalf("contended=false must be serialized explicitly: %s", blob)
	}
	runtime.GOMAXPROCS(2)
	if !NewDoc().Contended {
		t.Fatal("GOMAXPROCS=2 must report a contended run")
	}
}

// refParseRequest and its helpers are the parser the protocol shipped
// with (strings.Fields and strconv), kept verbatim under ref* names as
// the oracle for Request.Parse: the byte-slice parser must accept the
// same lines with the same fields and reject the rest with the same
// messages.
func refParseRequest(line string, tenants int) (Request, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return Request{}, fmt.Errorf("empty request")
	}
	var r Request
	switch f[0] {
	case "GET", "DEL":
		r.Op = OpGet
		if f[0] == "DEL" {
			r.Op = OpDel
		}
		if err := refParseArgs(f, 2, &r, tenants, false); err != nil {
			return r, err
		}
		k, err := refParseU64(f[2])
		if err != nil {
			return r, err
		}
		r.Keys = []uint64{k}
	case "PUT":
		r.Op = OpPut
		if err := refParseArgs(f, 3, &r, tenants, false); err != nil {
			return r, err
		}
		k, err := refParseU64(f[2])
		if err != nil {
			return r, err
		}
		v, err := refParseU64(f[3])
		if err != nil {
			return r, err
		}
		r.Keys, r.Val = []uint64{k}, v
	case "PUSH":
		r.Op = OpPush
		if err := refParseArgs(f, 2, &r, tenants, false); err != nil {
			return r, err
		}
		v, err := refParseU64(f[2])
		if err != nil {
			return r, err
		}
		r.Val = v
	case "POP":
		r.Op = OpPop
		if err := refParseArgs(f, 1, &r, tenants, false); err != nil {
			return r, err
		}
	case "MOVE":
		r.Op = OpMove
		if err := refParseArgs(f, 4, &r, tenants, true); err != nil {
			return r, err
		}
		sk, err := refParseU64(f[3])
		if err != nil {
			return r, err
		}
		tk, err := refParseU64(f[4])
		if err != nil {
			return r, err
		}
		r.Keys, r.TKeys = []uint64{sk}, []uint64{tk}
	case "XFER":
		r.Op = OpXfer
		if err := refParseArgs(f, 4, &r, tenants, true); err != nil {
			return r, err
		}
		var err error
		if r.Keys, err = refParseList(f[3]); err != nil {
			return r, err
		}
		if r.TKeys, err = refParseList(f[4]); err != nil {
			return r, err
		}
		if len(r.Keys) != len(r.TKeys) {
			return r, fmt.Errorf("XFER key lists differ in length")
		}
		if len(r.Keys) == 0 || len(r.Keys) > MaxXferKeys {
			return r, fmt.Errorf("XFER takes 1..%d key pairs", MaxXferKeys)
		}
	case "DRAIN":
		r.Op = OpDrain
		if err := refParseArgs(f, 3, &r, tenants, true); err != nil {
			return r, err
		}
		n, err := strconv.Atoi(f[3])
		if err != nil || n < 1 {
			return r, fmt.Errorf("bad DRAIN count %q", f[3])
		}
		if n > MaxDrainN {
			return r, fmt.Errorf("DRAIN takes 1..%d elements", MaxDrainN)
		}
		r.N = n
	case "STATS", "AUDIT", "PING", "METRICS", "SLOW":
		r.Op = map[string]Op{"STATS": OpStats, "AUDIT": OpAudit, "PING": OpPing, "METRICS": OpMetrics, "SLOW": OpSlow}[f[0]]
		if len(f) != 1 {
			return r, fmt.Errorf("%s takes no arguments", f[0])
		}
	default:
		return r, fmt.Errorf("unknown command %q", f[0])
	}
	return r, nil
}

// refParseArgs checks the token count and fills the tenant fields (two
// tenants when composed is set, which also enforces distinctness).
func refParseArgs(f []string, nargs int, r *Request, tenants int, composed bool) error {
	if len(f) != nargs+1 {
		return fmt.Errorf("%s takes %d arguments", f[0], nargs)
	}
	t, err := refParseTenant(f[1], tenants)
	if err != nil {
		return err
	}
	r.Tenant = t
	if composed {
		d, err := refParseTenant(f[2], tenants)
		if err != nil {
			return err
		}
		if d == t {
			return fmt.Errorf("%s requires two distinct tenants", f[0])
		}
		r.DTenant = d
	}
	return nil
}

func refParseTenant(s string, tenants int) (int, error) {
	t, err := strconv.Atoi(s)
	if err != nil || t < 0 || t >= tenants {
		return 0, fmt.Errorf("bad tenant %q (want 0..%d)", s, tenants-1)
	}
	return t, nil
}

func refParseU64(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func refParseList(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := refParseU64(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseCorpus is every request kind, every rejection of
// TestParseRequestRejects and the lexical corners where a hand-written
// tokenizer and number parser could part ways with strings.Fields and
// strconv. It seeds FuzzParseRequest.
var parseCorpus = []string{
	"GET 1 7", "PUT 0 9 123456789", "DEL 2 0", "PUSH 2 42", "POP 0",
	"MOVE 0 2 5 6", "XFER 1 0 1,2,3 4,5,6", "XFER 0 1 1,2,3,4 5,6,7,8", "DRAIN 2 1 16",
	"STATS", "AUDIT", "PING", "METRICS", "SLOW",
	"", "FLY 0 1", "GET 0", "GET 3 1", "GET -1 1", "PUT 0 1", "MOVE 1 1 2 3",
	"XFER 0 1 1,2 1", "XFER 0 1 1,2,3,4,5 6,7,8,9,10", "DRAIN 0 1 0", "DRAIN 0 0 4",
	"DRAIN 0 1 1024", "DRAIN 0 1 1025", "DRAIN 0 1 9223372036854775807",
	"STATS now", "GET 0 notanumber",
	"  GET\t0   1\r", "\tPING ", " ", "get 0 1", "GETX 0 1", "GE", "GET 0 1 2 3 4 5 6",
	"GET +1 5", "GET -0 5", "GET 00 007", "GET 0 +5", "GET 0 -5", "GET 0 1_0",
	"GET 0 18446744073709551615", "GET 0 18446744073709551616", "GET 0 99999999999999999999999",
	"GET 99999999999999999999 1", "GET 9223372036854775808 1",
	"DRAIN 0 1 +4", "DRAIN 0 1 -4", "DRAIN 0 1 9223372036854775808",
	"XFER 0 1 , ,", "XFER 0 1 1, 2,", "XFER 0 1 1,,2 3,4,5", "XFER 0 1 1,2,3,4,x 1", "XFER 0 1 1 2,x",
	"XFER 0 1 1,2,3,4,5 6,7,8,9", "MOVE 0 1 1,2 3", "MOVE 0 3 1 1", "MOVE 0 1 1", "PUT 0 1 2 3",
}

// checkParse parses line with Request.Parse (into a Request that has
// already served other lines), with ParseRequest and with the reference,
// and requires all three to agree on the verdict, the error text and
// every field.
func checkParse(t *testing.T, reused *Request, line string, tenants int) {
	t.Helper()
	want, wantErr := refParseRequest(line, tenants)
	got, gotErr := ParseRequest(line, tenants)
	in := []byte(line)
	reusedErr := reused.Parse(in, tenants)
	if string(in) != line {
		t.Fatalf("Parse(%q) modified its input: %q", line, in)
	}
	for _, c := range []struct {
		name string
		r    Request
		err  error
	}{{"ParseRequest", got, gotErr}, {"Request.Parse", *reused, reusedErr}} {
		if (c.err == nil) != (wantErr == nil) || (c.err != nil && c.err.Error() != wantErr.Error()) {
			t.Fatalf("%s(%q): error %v, reference %v", c.name, line, c.err, wantErr)
		}
		if c.err != nil {
			continue
		}
		if c.r.Op != want.Op || c.r.Tenant != want.Tenant || c.r.DTenant != want.DTenant ||
			c.r.Val != want.Val || c.r.N != want.N ||
			!slices.Equal(c.r.Keys, want.Keys) || !slices.Equal(c.r.TKeys, want.TKeys) {
			t.Fatalf("%s(%q) = %+v, reference %+v", c.name, line, c.r, want)
		}
	}
}

// TestParseAgreesWithReference: the byte-slice parser, on a Request
// reused across the whole corpus (so a field or key left over from the
// previous line would show), agrees with the original parser on every
// verb and every rejection.
func TestParseAgreesWithReference(t *testing.T) {
	var reused Request
	for _, tenants := range []int{3, 1} {
		for _, line := range parseCorpus {
			checkParse(t, &reused, line, tenants)
		}
	}
}

// FuzzParseRequest extends the agreement to generated lines. Non-ASCII
// input is skipped: strings.Fields also splits at Unicode spaces, which
// were never part of the grammar ("space-separated tokens") and which
// the byte-slice tokenizer treats as token bytes.
func FuzzParseRequest(f *testing.F) {
	for _, line := range parseCorpus {
		f.Add(line, 3)
	}
	var reused Request
	f.Fuzz(func(t *testing.T, line string, tenants int) {
		if strings.IndexFunc(line, func(r rune) bool { return r >= 0x80 }) >= 0 {
			t.Skip()
		}
		checkParse(t, &reused, line, tenants%8)
	})
}

// TestParseAndAppendNoAllocs pins the allocation budget of the server's
// per-request wire work: parsing a line into a reused Request and
// appending the OK response into a reused buffer allocate nothing, for
// each kind of request svc_pipe sends.
func TestParseAndAppendNoAllocs(t *testing.T) {
	lines := [][]byte{
		[]byte("GET 1 4093"), []byte("MOVE 0 2 4093 18446744073709551615"),
		[]byte("XFER 2 1 10,11,12,13 20,21,22,23"), []byte("DRAIN 0 1 4"),
	}
	var req Request
	buf := make([]byte, 0, 256)
	vals := []uint64{1 << 40, 2, 3, 4}
	for _, line := range lines {
		line := line
		serve := func() {
			if err := req.Parse(line, 3); err != nil {
				t.Fatalf("Parse(%q): %v", line, err)
			}
			n := len(req.Keys)
			if req.Op == OpDrain {
				n = req.N
			}
			buf = AppendOK(buf[:0], vals[:n]...)
		}
		serve() // the first keyed request sizes req's key storage
		if avg := testing.AllocsPerRun(1000, serve); avg != 0 {
			t.Errorf("%q: %v allocs per parse+append, want 0", line, avg)
		}
	}
	// The string wrapper pays for the fresh Request's keys and nothing
	// else: one allocation, none for a request without keys.
	for line, want := range map[string]float64{"XFER 2 1 10,11 20,21": 1, "MOVE 0 2 1 2": 1, "DRAIN 0 1 4": 0} {
		if avg := testing.AllocsPerRun(1000, func() { ParseRequest(line, 3) }); avg != want {
			t.Errorf("ParseRequest(%q): %v allocs, want %v", line, avg, want)
		}
	}
}

// TestAppendOKRoundTrip: what the server appends is what the client
// parses.
func TestAppendOKRoundTrip(t *testing.T) {
	for _, vals := range [][]uint64{nil, {7}, {1, 2, 3, 1<<64 - 1}} {
		line := string(AppendOK(nil, vals...))
		r, err := ParseResponse(line, true)
		if err != nil || !r.OK() || !slices.Equal(r.Vals, vals) {
			t.Errorf("AppendOK(%v) = %q, parsed back as %+v, %v", vals, line, r, err)
		}
	}
}
