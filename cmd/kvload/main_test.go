package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/kvwire"
	"repro/internal/xrand"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("get=60,put=15,del=5,move=10,transfer=4,push=2,pop=2,drain=2")
	if err != nil {
		t.Fatal(err)
	}
	if w[kvwire.OpGet] != 60 || w[kvwire.OpXfer] != 4 || w[kvwire.OpDrain] != 2 {
		t.Fatalf("weights %v", w)
	}
	for _, bad := range []string{"", "get", "get=x", "fly=10", "get=0,put=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestPickRespectsWeights(t *testing.T) {
	w, _ := parseMix("get=1,drain=3")
	var gets, drains int
	rng := xrand.New(7)
	for i := 0; i < 10000; i++ {
		switch w.pick(rng.Uint64()) {
		case kvwire.OpGet:
			gets++
		case kvwire.OpDrain:
			drains++
		default:
			t.Fatal("picked an op with zero weight")
		}
	}
	if gets == 0 || drains == 0 || drains < 2*gets {
		t.Fatalf("gets=%d drains=%d, want ~1:3", gets, drains)
	}
}

// TestRequestShapes checks that every generated request parses under
// the server's grammar — the two binaries sharing kvwire makes this a
// compile-time near-guarantee, but the composed ops' tenant and key
// distinctness is runtime logic worth pinning.
func TestRequestShapes(t *testing.T) {
	g := &generator{conns: 2, tenants: 3, keys: 8,
		weights: opWeights{1, 1, 1, 1, 1, 1, 1, 1}}
	rng := xrand.New(3)
	for i := 0; i < 5000; i++ {
		req := g.request(0, rng)
		line := string(req.Append(nil))
		if _, err := kvwire.ParseRequest(line[:len(line)-1], g.tenants); err != nil {
			t.Fatalf("generated unparseable request %q: %v", line, err)
		}
	}
	// Single-tenant runs must degrade composed ops instead of emitting
	// same-tenant pairs the server would reject.
	g1 := &generator{conns: 1, tenants: 1, keys: 8, weights: opWeights{kvwire.OpMove: 1}}
	for i := 0; i < 100; i++ {
		if req := g1.request(0, rng); req.Op != kvwire.OpGet {
			t.Fatalf("single-tenant composed op not degraded: %+v", req)
		}
	}
}

func TestTokensUnique(t *testing.T) {
	g := &generator{}
	rng := xrand.New(1)
	seen := make(map[uint64]bool)
	for owner := uint64(0); owner < 4; owner++ {
		for i := 0; i < 1000; i++ {
			v := g.token(owner, rng)
			if seen[v] {
				t.Fatalf("token %d repeated", v)
			}
			seen[v] = true
		}
	}
}

// stubServer answers PUT/DEL/PUSH/AUDIT lines over one map and one
// queue count: enough of kvserver for a prefill and an audit, with
// state the test can set before the first connection.
type stubServer struct {
	mu     sync.Mutex
	m      map[[2]uint64]uint64 // (tenant, key) → value
	queued uint64
}

func (s *stubServer) answer(req kvwire.Request) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case kvwire.OpPut:
		k := [2]uint64{uint64(req.Tenant), req.Keys[0]}
		if _, ok := s.m[k]; ok {
			return "EXISTS"
		}
		s.m[k] = req.Val
		return "OK"
	case kvwire.OpDel:
		k := [2]uint64{uint64(req.Tenant), req.Keys[0]}
		v, ok := s.m[k]
		if !ok {
			return "NF"
		}
		delete(s.m, k)
		return fmt.Sprintf("OK %d", v)
	case kvwire.OpPush:
		s.queued++
		return "OK"
	case kvwire.OpAudit:
		var sum uint64
		for _, v := range s.m {
			sum += v
		}
		return fmt.Sprintf("OK %d %d %d", len(s.m), sum, s.queued)
	}
	return "ERR unsupported"
}

// start serves s on a loopback listener until the test ends.
func (s *stubServer) start(t *testing.T, tenants int) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				in := bufio.NewScanner(c)
				for in.Scan() {
					resp := "ERR parse"
					if req, err := kvwire.ParseRequest(in.Text(), tenants); err == nil {
						resp = s.answer(req)
					}
					if _, err := fmt.Fprintln(c, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestAuditAgainstWarmServer: the audit judges what the run changed,
// not what the server holds. The stub starts with entries and queue
// elements from "an earlier run" (a value-sum that has already wrapped),
// and the run deletes more of them than it inserts, so the expected
// map-count change is negative.
func TestAuditAgainstWarmServer(t *testing.T) {
	const tenants = 2
	s := &stubServer{m: map[[2]uint64]uint64{}, queued: 5}
	top := ^uint64(0)
	for k := uint64(0); k < 8; k++ {
		s.m[[2]uint64{0, k}] = top - k
	}
	g := &generator{addr: s.start(t, tenants), conns: 1, tenants: tenants, keys: 8, prefill: 4, seed: 1}

	var err error
	if g.auditBase, err = g.auditTotals(); err != nil {
		t.Fatal(err)
	}
	if g.auditBase != [3]uint64{8, top*8 - 28, 5} {
		t.Fatalf("baseline %v does not show the stub's warm state", g.auditBase)
	}
	c, err := dialConn(g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.c.Close()
	if err := g.doPrefill(c); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ { // tenant 0 ends empty, whatever the prefill added
		req := kvwire.Request{Op: kvwire.OpDel, Tenant: 0, Keys: []uint64{k}}
		resp, err := c.roundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		g.account(0, req, resp)
	}
	a, err := g.audit()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pass {
		t.Fatalf("false audit failure against a warm server: %+v", a)
	}
	if int64(a.ExpectMapCount) >= 0 || a.ExpectQueueCount != 2 {
		t.Fatalf("run did not shrink the warm map as intended: %+v", a)
	}

	// A server-side loss the client did not cause must still fail.
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	if a, err = g.audit(); err != nil || a.Pass {
		t.Fatalf("audit passed over a lost queue element: %+v, %v", a, err)
	}
}
