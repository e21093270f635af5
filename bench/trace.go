package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/latency"
)

// opKind names the layer boundary a span was recorded at. Spans are
// recorded from the benchmark's own files, around the calls into each
// layer's public functions; the program under test is not instrumented.
type opKind uint8

const (
	opMove opKind = iota
	opTransfer
	opEnqueue
	opDequeue
	opPush
	opPop
	opGet
	opInsert
	opRemove
	opLocalWork
	opGenLag
	opSend
	opWait
	opSync // between two rounds: waiting for the other load threads, preparing the next round
	numKinds
)

var kindNames = [numKinds]string{
	opMove: "core.move", opTransfer: "core.transfer",
	opEnqueue: "msqueue.enqueue", opDequeue: "msqueue.dequeue",
	opPush: "tstack.push", opPop: "tstack.pop",
	opGet: "hashmap.get", opInsert: "hashmap.insert", opRemove: "hashmap.remove",
	opLocalWork: "bench.local_work",
	opGenLag:    "client.gen_lag", opSend: "client.send", opWait: "client.wait",
	opSync: "bench.sync",
}

// span is one recorded interval. Its parent is the round span of the
// same thread and its id the load thread (lib_*) or connection (svc_*)
// that produced it.
type span struct {
	kind       opKind
	ok         bool
	round      uint32 // timed rounds count from 1
	start, end int64  // ns since epoch
}

// keepSpans bounds the raw spans one load thread retains for the JSONL
// file; a traced pass of millions of operations keeps the first
// keepSpans and aggregates the rest (count, time, histogram) only.
const keepSpans = 1 << 16

// threadTrace is one load thread's span store: raw spans up to
// keepSpans and, for every span, per-kind aggregates. It is owned by
// one goroutine until the run is joined.
type threadTrace struct {
	spans   []span
	rounds  []span // one per timed round: what the spans above hang from
	round   uint32 // the open round; 0 while warming up
	dropped uint64
	hist    [numKinds]*latency.Hist
	okCount [numKinds]uint64
	busyNS  int64 // sum of span durations
}

func newThreadTrace() *threadTrace {
	tt := &threadTrace{spans: make([]span, 0, keepSpans)}
	for k := range tt.hist {
		tt.hist[k] = latency.NewHist()
	}
	return tt
}

// nextRound opens a round: spans recorded from here on belong to it.
// Spans of warm-up rounds are discarded.
func (tt *threadTrace) nextRound(timed bool) {
	t := now()
	if n := len(tt.rounds); n > 0 && tt.rounds[n-1].end == 0 {
		tt.rounds[n-1].end = t
	}
	if tt.round = 0; timed {
		tt.round = uint32(len(tt.rounds) + 1)
		tt.rounds = append(tt.rounds, span{round: tt.round, start: t})
	}
}

// rec records one span of the open round.
func (tt *threadTrace) rec(kind opKind, ok bool, start, end int64) {
	if tt.round == 0 {
		return
	}
	tt.hist[kind].RecordNS(end - start)
	tt.busyNS += end - start
	if ok {
		tt.okCount[kind]++
	}
	if len(tt.spans) < keepSpans {
		tt.spans = append(tt.spans, span{kind: kind, ok: ok, round: tt.round, start: start, end: end})
	} else {
		tt.dropped++
	}
}

// traceSet is the spans of one traced run.
type traceSet struct {
	threads []*threadTrace
}

func newTraceSet(n int) *traceSet {
	ts := &traceSet{}
	for i := 0; i < n; i++ {
		ts.threads = append(ts.threads, newThreadTrace())
	}
	return ts
}

// thread returns load thread id's span store; nil for an untraced pass
// (a nil traceSet).
func (ts *traceSet) thread(id int) *threadTrace {
	if ts == nil {
		return nil
	}
	return ts.threads[id]
}

// merged returns kind's histogram and ok count over all threads.
func (ts *traceSet) merged(kind opKind) (latency.Snapshot, uint64) {
	var s latency.Snapshot
	var ok uint64
	for _, tt := range ts.threads {
		s.Merge(tt.hist[kind].Snapshot())
		ok += tt.okCount[kind]
	}
	return s, ok
}

// setMean stores kind's mean span duration in ns under name, if any
// span of that kind was recorded.
func (ts *traceSet) setMean(m metrics, name string, kind opKind) {
	if s, _ := ts.merged(kind); s.Count > 0 {
		m.set(name, s.MeanNS())
	}
}

// coverage is the share of the load threads' traced wall time that
// their spans account for: span self times (no span here has children)
// over threads × traced duration.
func (ts *traceSet) coverage(c *clock) float64 {
	var busy int64
	for _, tt := range ts.threads {
		busy += tt.busyNS
	}
	return ratio(float64(busy), float64(c.tEnd-c.tTimed)*float64(len(ts.threads)))
}

// write dumps the retained spans as JSONL: one header line, one line
// per round span, one per recorded span. Spans stay in memory until
// the run has ended; this is the only place they are written.
func (ts *traceSet) write(path, workload string, seed uint64, c *clock) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var dropped uint64
	for _, tt := range ts.threads {
		dropped += tt.dropped
	}
	fmt.Fprintf(w, "{\"trace\":%q,\"seed\":%d,\"threads\":%d,\"spans_not_retained\":%d}\n",
		workload, seed, len(ts.threads), dropped)
	var line []byte
	for id, tt := range ts.threads {
		for _, r := range tt.rounds {
			if r.end == 0 {
				r.end = c.tEnd // the pass ended in this round
			}
			fmt.Fprintf(w, "{\"name\":\"bench.round:%d\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%q,\"id\":%d}\n",
				r.round, r.start, r.end, workload, id)
		}
		for _, sp := range tt.spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, kindNames[sp.kind]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, sp.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, sp.end, 10)
			line = append(line, `,"parent":"bench.round:`...)
			line = strconv.AppendInt(line, int64(sp.round), 10)
			line = append(line, `","id":`...)
			line = strconv.AppendInt(line, int64(id), 10)
			line = append(line, `,"ok":`...)
			line = strconv.AppendBool(line, sp.ok)
			line = append(line, "}\n"...)
			w.Write(line) // bufio keeps the first error for Flush
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
