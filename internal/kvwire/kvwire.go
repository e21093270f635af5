// Package kvwire defines the wire protocol and the report format
// shared by cmd/kvserver and cmd/kvload, so the two binaries cannot
// drift apart: the server parses requests with ParseRequest, the load
// generator serializes them with Request.Append, and both sides speak
// the same response grammar.
//
// # Protocol
//
// The protocol is line-oriented text over TCP: one request per line,
// space-separated tokens, one response line per request, in order.
// Tenants are integer ids 0..N-1 (the server declares N at startup);
// keys and values are decimal uint64s.
//
//	GET <tenant> <key>                     → OK <val> | NF
//	PUT <tenant> <key> <val>               → OK | EXISTS
//	DEL <tenant> <key>                     → OK <val> | NF
//	PUSH <tenant> <val>                    → OK
//	POP <tenant>                           → OK <val> | NF
//	MOVE <stenant> <dtenant> <skey> <tkey> → OK <val> | FAIL
//	XFER <stenant> <dtenant> <sk,..> <tk,..> → OK <v,..> | FAIL
//	DRAIN <stenant> <dtenant> <n>          → OK <v,..> (may be empty)
//	STATS                                  → OK <one-line JSON>
//	SLOW                                   → OK <one-line JSON>
//	AUDIT                                  → OK <mapN> <mapSum> <queueN>
//	PING                                   → OK
//	METRICS                                → Prometheus text, multi-line,
//	                                         terminated by a "# EOF" line
//
// METRICS is the one multi-line response in the protocol: the server
// streams the metrics registry's snapshot in Prometheus text exposition
// format and the OpenMetrics "# EOF" terminator frames it, so clients
// read lines until "# EOF" (or a leading "ERR " line when the registry
// is disabled).
//
// SLOW returns the server's tail exemplars — the slowest requests'
// spans, each with its full per-stage latency breakdown — as a
// one-line SlowDoc JSON document (ERR when spans are disabled). It is
// the wire surface of the request-span layer: kvload prints the
// breakdown next to its client-side percentiles, and CI greps it to
// check that an injected stall is attributed to the execute stage.
//
// GET/PUT/DEL address a tenant's map; PUSH/POP its queue. The three
// composed operations are the product feature: MOVE atomically
// relocates one entry between two tenants' maps (repro.Move — the
// entry is never in both maps nor in neither), XFER moves up to four
// keyed entries in one k-word CAS (repro.TransferKeys — FAIL also
// covers chain-dependent keys, retryable as per-key MOVEs), and DRAIN
// streams up to n ≤ MaxDrainN elements between two tenants' queues,
// each its own atomic move (repro.DrainN). Composed operations
// require two distinct tenants; ParseRequest rejects same-tenant
// pairs. AUDIT returns conservation totals: entries and value-sum
// (wrapping uint64) over all tenant maps, and entries over all tenant
// queues — moves and transfers must leave all three unchanged.
//
// Error responses are "ERR <message>"; the connection stays usable.
// The one exception is a request line longer than 64 KiB, which the
// server cannot frame: it answers "ERR line too long" and closes.
//
// # Pipelining
//
// A client may send any number of request lines without waiting for
// responses. The server answers them in order, one response per
// request, and writes to the socket once per batch: it executes every
// complete line its last read delivered and flushes when none remains,
// so a lone request is answered immediately and a window of N costs one
// write. Responses of requests that executed are delivered before the
// server closes a connection for any reason (EOF, drain, a fault-killed
// worker); a client that stops reading is held by TCP back-pressure and,
// with -wtimeout, disconnected.
//
// # Degradation responses
//
// Two statuses carry the server's graceful-degradation contract; both
// guarantee the operation was NOT executed, so clients may retry
// without risking duplication:
//
//	BUSY    — the server shed the request: substrate resources
//	          (descriptor pool, arena) were exhausted, or the overload
//	          controller is shedding this tenant's ops to protect the
//	          configured SLO. Retry after jittered backoff.
//	TIMEOUT — the per-request deadline (-deadline) expired before the
//	          operation could execute. Retry, ideally with a longer
//	          deadline or lower offered load.
//
// A connection-level client timeout is NOT a TIMEOUT response: the
// request may have executed and the response been lost, so clients must
// treat it as ambiguous for any operation whose duplication is
// observable (kvload retries only conservation-neutral ops after one).
package kvwire

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Op identifies a request kind; it doubles as the operation index of
// the server's and load generator's latency recorders.
type Op int

// The request kinds. The first OpCount values are the data-path
// operations latency histograms are kept for; STATS, AUDIT and PING
// are control-plane commands.
const (
	OpGet Op = iota
	OpPut
	OpDel
	OpPush
	OpPop
	OpMove
	OpXfer
	OpDrain
	OpCount // number of data-path op kinds

	OpStats
	OpAudit
	OpPing
	OpMetrics
	OpSlow
)

var opNames = [...]string{
	OpGet: "GET", OpPut: "PUT", OpDel: "DEL", OpPush: "PUSH", OpPop: "POP",
	OpMove: "MOVE", OpXfer: "XFER", OpDrain: "DRAIN",
	OpStats: "STATS", OpAudit: "AUDIT", OpPing: "PING", OpMetrics: "METRICS",
	OpSlow: "SLOW",
}

// String returns the protocol verb.
func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// verbOp resolves a protocol verb to its Op.
func verbOp(verb []byte) (Op, bool) {
	for op, name := range opNames {
		if name != "" && string(verb) == name {
			return Op(op), true
		}
	}
	return 0, false
}

// MaxXferKeys is the key-pair limit of XFER (repro.TransferKeys' k-CAS
// width budget: 2 CASes per pair, 8 entries per descriptor).
const MaxXferKeys = 4

// MaxDrainN is the element limit of DRAIN. At 1024 the largest response
// (≤ 21 bytes per value) stays well under the 64 KiB line cap, and the
// server's result buffer stays small.
const MaxDrainN = 1024

// Request is one parsed client request.
type Request struct {
	Op Op
	// Tenant is the addressed tenant (GET/PUT/DEL/PUSH/POP) or the
	// source tenant of a composed operation; DTenant is the composed
	// operation's destination tenant.
	Tenant, DTenant int
	// Keys/TKeys carry the source/target keys: one each for GET, PUT,
	// DEL and MOVE; up to MaxXferKeys each for XFER.
	Keys, TKeys []uint64
	// Val is PUT's and PUSH's value.
	Val uint64
	// N is DRAIN's element budget.
	N int
}

// Append serializes the request as one protocol line (including the
// trailing newline) onto dst and returns the extended slice.
func (r Request) Append(dst []byte) []byte {
	dst = append(dst, r.Op.String()...)
	switch r.Op {
	case OpGet, OpDel:
		dst = appendInts(dst, r.Tenant, r.Keys[0])
	case OpPut:
		dst = appendInts(dst, r.Tenant, r.Keys[0], r.Val)
	case OpPush:
		dst = appendInts(dst, r.Tenant, r.Val)
	case OpPop:
		dst = appendInts(dst, r.Tenant)
	case OpMove:
		dst = appendInts(dst, r.Tenant, r.DTenant, r.Keys[0], r.TKeys[0])
	case OpXfer:
		dst = appendInts(dst, r.Tenant, r.DTenant)
		dst = append(dst, ' ')
		dst = appendList(dst, r.Keys)
		dst = append(dst, ' ')
		dst = appendList(dst, r.TKeys)
	case OpDrain:
		dst = appendInts(dst, r.Tenant, r.DTenant, uint64(r.N))
	case OpStats, OpAudit, OpPing, OpMetrics, OpSlow:
		// verb only
	}
	return append(dst, '\n')
}

func appendInts(dst []byte, vs ...interface{}) []byte {
	for _, v := range vs {
		dst = append(dst, ' ')
		switch x := v.(type) {
		case int:
			dst = strconv.AppendInt(dst, int64(x), 10)
		case uint64:
			dst = strconv.AppendUint(dst, x, 10)
		}
	}
	return dst
}

func appendList(dst []byte, vs []uint64) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return dst
}

// ParseRequest parses one protocol line (without the newline) and
// validates tenant ids against the server's tenant count and composed
// operations' tenant-distinctness. It is Request.Parse for callers that
// hold the line as a string and want a fresh Request per call.
func ParseRequest(line string, tenants int) (Request, error) {
	// Parse neither retains nor modifies its line, so lines of ordinary
	// length are copied to the stack rather than converted on the heap.
	var stack [256]byte
	var r Request
	err := r.Parse(append(stack[:0], line...), tenants)
	return r, err
}

// maxTokens is the longest request: a verb and MOVE's or XFER's four
// arguments.
const maxTokens = 5

// Parse is the server's parser: it parses one protocol line (without
// the newline) into r, overwriting every field, with ParseRequest's
// validation. It reuses r's key storage, so a Request kept for the life
// of a connection parses every line without allocating once its first
// keyed request has sized the storage; Keys and TKeys are therefore only
// valid until the next Parse into r. line is neither retained nor
// modified. Tokens are separated by ASCII white space.
func (r *Request) Parse(line []byte, tenants int) error {
	*r = Request{Keys: r.Keys[:0], TKeys: r.TKeys[:0]}
	f, n := fields(line)
	if n == 0 {
		return fmt.Errorf("empty request")
	}
	op, ok := verbOp(f[0])
	if !ok {
		return fmt.Errorf("unknown command %q", string(f[0]))
	}
	r.Op = op
	var err error
	switch op {
	case OpGet, OpDel:
		if err = r.parseArgs(&f, n, 2, tenants, false); err != nil {
			return err
		}
		r.sizeKeys()
		r.Keys, err = parseKey(r.Keys, f[2])
		return err
	case OpPut:
		if err = r.parseArgs(&f, n, 3, tenants, false); err != nil {
			return err
		}
		r.sizeKeys()
		if r.Keys, err = parseKey(r.Keys, f[2]); err != nil {
			return err
		}
		r.Val, err = parseU64(f[3])
		return err
	case OpPush:
		if err = r.parseArgs(&f, n, 2, tenants, false); err != nil {
			return err
		}
		r.Val, err = parseU64(f[2])
		return err
	case OpPop:
		return r.parseArgs(&f, n, 1, tenants, false)
	case OpMove:
		if err = r.parseArgs(&f, n, 4, tenants, true); err != nil {
			return err
		}
		r.sizeKeys()
		if r.Keys, err = parseKey(r.Keys, f[3]); err != nil {
			return err
		}
		r.TKeys, err = parseKey(r.TKeys, f[4])
		return err
	case OpXfer:
		if err = r.parseArgs(&f, n, 4, tenants, true); err != nil {
			return err
		}
		r.sizeKeys()
		var nk, ntk int
		if r.Keys, nk, err = parseList(r.Keys, f[3]); err != nil {
			return err
		}
		if r.TKeys, ntk, err = parseList(r.TKeys, f[4]); err != nil {
			return err
		}
		if nk != ntk {
			return fmt.Errorf("XFER key lists differ in length")
		}
		if nk > MaxXferKeys {
			return fmt.Errorf("XFER takes 1..%d key pairs", MaxXferKeys)
		}
		return nil
	case OpDrain:
		if err = r.parseArgs(&f, n, 3, tenants, true); err != nil {
			return err
		}
		if r.N, ok = atoi(f[3]); !ok || r.N < 1 {
			return fmt.Errorf("bad DRAIN count %q", string(f[3]))
		}
		if r.N > MaxDrainN {
			return fmt.Errorf("DRAIN takes 1..%d elements", MaxDrainN)
		}
		return nil
	default: // the control verbs
		if n != 1 {
			return fmt.Errorf("%s takes no arguments", op)
		}
		return nil
	}
}

// fields splits line at ASCII white space; it returns the first
// maxTokens tokens and how many tokens the line holds in all.
func fields(line []byte) (f [maxTokens][]byte, n int) {
	for i := 0; ; {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		if i == len(line) {
			return f, n
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			i++
		}
		if n < maxTokens {
			f[n] = line[start:i]
		}
		n++
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// parseArgs checks the token count and fills the tenant fields (two
// tenants when composed is set, which also enforces distinctness).
func (r *Request) parseArgs(f *[maxTokens][]byte, n, nargs, tenants int, composed bool) error {
	if n != nargs+1 {
		return fmt.Errorf("%s takes %d arguments", r.Op, nargs)
	}
	t, err := parseTenant(f[1], tenants)
	if err != nil {
		return err
	}
	r.Tenant = t
	if composed {
		d, err := parseTenant(f[2], tenants)
		if err != nil {
			return err
		}
		if d == t {
			return fmt.Errorf("%s requires two distinct tenants", r.Op)
		}
		r.DTenant = d
	}
	return nil
}

// sizeKeys makes Keys and TKeys empty slices of capacity MaxXferKeys.
// Both are carved from one allocation the first time r needs them and
// reused by every later Parse.
func (r *Request) sizeKeys() {
	if cap(r.Keys) < MaxXferKeys || cap(r.TKeys) < MaxXferKeys {
		store := make([]uint64, 2*MaxXferKeys)
		r.Keys, r.TKeys = store[:0:MaxXferKeys], store[MaxXferKeys:MaxXferKeys]
	}
}

// parseKey appends the one key in tok to dst.
func parseKey(dst []uint64, tok []byte) ([]uint64, error) {
	k, err := parseU64(tok)
	if err != nil {
		return dst, err
	}
	return append(dst, k), nil
}

func parseTenant(tok []byte, tenants int) (int, error) {
	t, ok := atoi(tok)
	if !ok || t < 0 || t >= tenants {
		return 0, fmt.Errorf("bad tenant %q (want 0..%d)", string(tok), tenants-1)
	}
	return t, nil
}

// atoi is strconv.Atoi on a byte slice: an optional sign, then decimal
// digits that fit an int.
func atoi(tok []byte) (int, bool) {
	neg := false
	if len(tok) > 0 && (tok[0] == '+' || tok[0] == '-') {
		neg = tok[0] == '-'
		tok = tok[1:]
	}
	v, err := parseU64(tok)
	switch {
	case err != nil:
		return 0, false
	case neg && v <= 1<<63:
		return -int(v), true
	case !neg && v < 1<<63:
		return int(v), true
	}
	return 0, false
}

// parseU64 is strconv.ParseUint(tok, 10, 64) without the conversion to
// string a byte-slice token would need.
func parseU64[T string | []byte](tok T) (uint64, error) {
	var v uint64
	for i := 0; i < len(tok); i++ {
		d := uint64(tok[i] - '0')
		if d > 9 || v > (1<<64-1)/10 || v*10 > 1<<64-1-d {
			return 0, fmt.Errorf("bad number %q", string(tok))
		}
		v = v*10 + d
	}
	if len(tok) == 0 {
		return 0, fmt.Errorf("bad number %q", string(tok))
	}
	return v, nil
}

// parseList appends a request's comma-separated key list to dst, which
// sizeKeys has given room for MaxXferKeys. Every element is validated
// and counted (n) but only that many are stored, so an over-long list
// costs no allocation to reject.
func parseList(dst []uint64, tok []byte) (_ []uint64, n int, err error) {
	for more := true; more; n++ {
		var elem []byte
		elem, tok, more = bytes.Cut(tok, []byte{','})
		v, err := parseU64(elem)
		if err != nil {
			return dst, n, err
		}
		if n < MaxXferKeys {
			dst = append(dst, v)
		}
	}
	return dst, n, nil
}

// parseVals parses a response's comma-separated value list.
func parseVals(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := parseU64(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Response is one parsed server response.
type Response struct {
	// Status is "OK", "NF", "EXISTS", "FAIL", "ERR", "BUSY" or
	// "TIMEOUT". BUSY and TIMEOUT guarantee the operation did not
	// execute (see the package comment's degradation contract).
	Status string
	// Vals are the response's numeric payloads (value of GET/DEL/POP/
	// MOVE, value list of XFER/DRAIN, the three AUDIT totals).
	Vals []uint64
	// Raw is the rest of the line verbatim (ERR message, STATS JSON).
	Raw string
}

// OK reports whether the request succeeded.
func (r Response) OK() bool { return r.Status == "OK" }

// Retryable reports whether the response is a degradation status (BUSY
// or TIMEOUT) under which the server guarantees the operation did not
// execute — safe to retry for every operation, including
// non-idempotent ones.
func (r Response) Retryable() bool { return r.Status == "BUSY" || r.Status == "TIMEOUT" }

// AppendOK appends the success response carrying vals, "OK" or
// "OK <v,..>", without the newline: the form ParseResponse reads back
// with values set. The server builds its data-path responses with it
// directly in its write buffer.
func AppendOK(dst []byte, vals ...uint64) []byte {
	dst = append(dst, "OK"...)
	if len(vals) > 0 {
		dst = append(dst, ' ')
		dst = appendList(dst, vals)
	}
	return dst
}

// ParseResponse parses one response line (without the newline). values
// selects whether the OK payload is numeric (data-path responses) or
// raw text (STATS).
func ParseResponse(line string, values bool) (Response, error) {
	status, rest, _ := strings.Cut(line, " ")
	r := Response{Status: status, Raw: rest}
	switch status {
	case "OK":
		if values && rest != "" {
			for _, tok := range strings.Fields(rest) {
				vs, err := parseVals(tok)
				if err != nil {
					return r, fmt.Errorf("bad OK payload %q", rest)
				}
				r.Vals = append(r.Vals, vs...)
			}
		}
	case "NF", "EXISTS", "FAIL", "ERR", "BUSY", "TIMEOUT":
	default:
		return r, fmt.Errorf("unknown response status %q", status)
	}
	return r, nil
}
