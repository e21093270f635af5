// Command kvserver serves the composed-KV network service: a
// multi-tenant key-value store over the repository's lock-free
// containers, with the paper's lock-free composition exposed as the
// cross-tenant product operations. Each tenant owns one sharded
// resizable hash map and one Michael–Scott queue; the kvwire line
// protocol (see internal/kvwire) offers GET/PUT/DEL and PUSH/POP on
// them, plus:
//
//	MOVE  — atomically relocate one entry between two tenants' maps
//	        (repro.Move: in exactly one map at every instant)
//	XFER  — atomically move up to 4 keyed entries in one k-word CAS
//	        (repro.TransferKeys)
//	DRAIN — stream up to n ≤ 1024 (kvwire.MaxDrainN) elements between
//	        two tenants' queues, each its own atomic move (repro.DrainN)
//
// Each connection is handled by a worker goroutine owning one
// registered repro.Thread (the paper's thread-local move state), so
// -workers bounds both concurrency and runtime thread registrations.
// Per-tenant, per-op service times land in striped HDR histograms
// (internal/latency); the STATS command returns them as one-line JSON
// (p50/p99/p999/max per tenant and op) and AUDIT returns conservation
// totals for the load generator's end-of-run check.
//
// Robustness (see docs/robustness.md): a request that fails for want of
// arena nodes answers BUSY at once (a DRAIN that moved elements first
// answers OK with them), -wtimeout sheds clients that stop draining
// responses, and SIGTERM drains gracefully — stop accepting, finish
// in-flight requests, print a final STATS and AUDIT line, exit 0. Overload is met with back-pressure, not
// rejection: accepts wait for a free worker and TCP holds what a busy
// worker has not read. -fault installs chaos-test fault rules (stalls,
// parks, kills at descriptor-protocol windows).
//
// Observability (see docs/observability.md): the metrics registry is
// always on and serves the METRICS wire verb in Prometheus text format;
// -trace FILE enables the descriptor-protocol tracer and writes the
// drained events as JSONL on the SIGTERM drain path (inspect with
// cmd/tracecheck); -cpuprofile FILE records a CPU profile from boot and
// writes it at the same drain (go tool pprof FILE). The METRICS verb
// also carries the process's heap in use and GC cycle count
// (go_heap_inuse_bytes, go_gc_cycles_total).
//
// Request spans are also on by default (-spans=false disables): each
// data-path request's wall time is decomposed into queue (accept→worker
// borrow), parse, execute (with kcas publish/help/abort deltas) and
// write stages. Per-stage histograms reach STATS ("stages") and METRICS
// (stage_* series); the SLOW verb returns the slowest requests' full
// spans since boot as JSON (tail exemplars, kept per worker and merged
// when SLOW reads them); a -trace dump interleaves span records with
// protocol events, joined by request id.
//
// On Linux kvserver imports no net (listen_linux.go): net's cgo resolver
// makes a cgo build dynamic, and libc and the loader are then a third of
// the server's resident size. -addr takes IP literals, localhost or "".
//
// Example:
//
//	kvserver -addr :7070 -tenants 4 -workers 16
//	kvserver -addr 127.0.0.1:7070 -tenants 3
//	kvserver -arena 65536 -fault 'kcas-commit:stall=2ms:every=97'
//	kvserver -trace /tmp/kv.jsonl -cpuprofile /tmp/kv.pprof
//
// Drive it with cmd/kvload, or by hand:
//
//	$ printf 'PUT 0 1 77\nMOVE 0 1 1 1\nGET 1 1\n' | nc localhost 7070
//	OK
//	OK 77
//	OK 77
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro"
)

// faultFlags collects repeatable -fault rule specs.
type faultFlags []string

func (f *faultFlags) String() string { return fmt.Sprint(*f) }
func (f *faultFlags) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func main() {
	var faults faultFlags
	var (
		addr     = flag.String("addr", ":7070", "TCP listen address")
		tenants  = flag.Int("tenants", 4, "number of tenants (each owns one map and one queue)")
		workers  = flag.Int("workers", 16, "connection-handler workers (bounds concurrent connections)")
		shards   = flag.Int("shards", 8, "shards per tenant map")
		buckets  = flag.Int("buckets", 8, "initial buckets per shard")
		arena    = flag.Int("arena", 1<<20, "container-node capacity across all tenants")
		wtimeout = flag.Duration("wtimeout", 0, "per-response write timeout; slow clients are disconnected (0 = none)")

		traceOut   = flag.String("trace", "", "enable descriptor-protocol tracing; write JSONL events (and spans) to this file at drain")
		spans      = flag.Bool("spans", true, "enable request-scoped spans: per-stage latency attribution, tail exemplars and the SLOW wire verb")
		cpuProfile = flag.String("cpuprofile", "", "record a CPU profile from boot; write it to this file at drain (empty = off)")
	)
	flag.Var(&faults, "fault", "fault-injection rule (repeatable), e.g. 'kcas-commit:stall=2ms:every=97'")
	flag.Parse()

	var profile *os.File
	if *cpuProfile != "" {
		var err error
		if profile, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(profile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvserver: -cpuprofile:", err)
			os.Exit(2)
		}
	}

	var plan *repro.FaultPlan
	if len(faults) > 0 {
		var err error
		if plan, err = repro.ParseFaultPlan(faults); err != nil {
			fmt.Fprintln(os.Stderr, "kvserver: -fault:", err)
			os.Exit(2)
		}
	}

	s := NewServer(Config{
		Tenants: *tenants, Workers: *workers,
		Shards: *shards, Buckets: *buckets, Arena: *arena,
		WriteTimeout: *wtimeout, Fault: plan,
		Trace: *traceOut != "", Spans: *spans,
	})
	ln, bound, err := listenTCP(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
	fmt.Printf("kvserver: %d tenants, %d workers, listening on %s\n",
		*tenants, *workers, bound)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvserver:", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		// Graceful drain: stop accepting, finish in-flight requests,
		// then report the final state on stdout and exit clean. The
		// audit runs on the setup thread (worker threads may have been
		// fault-killed) after the server has quiesced, so its totals are
		// an exact conservation witness.
		fmt.Printf("kvserver: %v, draining\n", sig)
		start := time.Now()
		s.Drain()
		doc := s.Stats()
		os.Stdout.Write(append(doc.AppendJSON([]byte("STATS ")), '\n'))
		mapN, mapSum, queueN := s.Audit(s.SetupThread())
		fmt.Printf("AUDIT %d %d %d\n", mapN, mapSum, queueN)
		if *traceOut != "" {
			// Drain the tracer only after the server has quiesced so the
			// file holds every recorded event in one sorted pass.
			f, err := os.Create(*traceOut)
			if err == nil {
				err = s.WriteTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "kvserver: -trace:", err)
			} else {
				fmt.Printf("kvserver: trace written to %s\n", *traceOut)
			}
		}
		if profile != nil {
			pprof.StopCPUProfile()
			if err := profile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "kvserver: -cpuprofile:", err)
			} else {
				fmt.Printf("kvserver: cpu profile written to %s\n", *cpuProfile)
			}
		}
		fmt.Printf("kvserver: drained in %v\n", time.Since(start).Round(time.Millisecond))
	}
}
