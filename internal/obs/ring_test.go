package obs

import (
	"sync"
	"testing"
	"time"
)

// TestParkedWriterStopsNoReader: thread 0 is parked in the middle of
// writing a trace event and a span, each slot's sequence odd, both
// rings full so the parked slots hold records readers would return.
// Every other thread's Record and Finish completes, and so do a
// concurrent Drain, Completed, Exemplars and what SLOW reads
// (Exemplars and Dropped), each leaving out only the parked slot. Once
// the writer resumes, its records are there.
func TestParkedWriterStopsNoReader(t *testing.T) {
	const size, k = 8, 2
	tr := NewTracer(3, size)
	sp := NewSpans(2, size, k)
	for i := uint64(0); i < size; i++ {
		tr.Record(0, EvPublish, -1, i)
		sp.Finish(0, Span{Req: i + 1, StartNS: int64(i), WallNS: int64(100 + i), Op: "MOVE", Status: "OK"})
	}
	// Thread 0 overwrites event 0, span 1 and the exemplar of wall 106.
	finishEv := tr.parkRecord(0, EvCommit, -1, size)
	finishSp := sp.parkFinish(0, Span{Req: size + 1, StartNS: size, WallNS: 1000, Op: "XFER", Status: "OK"})

	var (
		evs            []Event
		completed, ex  []Span
		slowEx         []Span
		slowDropped    uint64
		wg             sync.WaitGroup
		done           = make(chan struct{})
		recorded, fins = size - 3, 50
	)
	for tid := 1; tid < 3; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < recorded; i++ {
				tr.Record(tid, EvHelp, 0, uint64(i))
			}
		}(tid)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < fins; i++ {
			sp.Finish(1, Span{Req: uint64(1000 + i), WallNS: int64(10 + i%2), Op: "GET", Status: "NF"})
		}
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a writer waited on the parked thread")
	}
	read := make(chan struct{})
	go func() {
		defer close(read)
		evs = tr.Drain()
		completed = sp.Completed()
		ex = sp.Exemplars()
		slowDropped, slowEx = sp.Dropped(), sp.Exemplars()
	}()
	select {
	case <-read:
	case <-time.After(10 * time.Second):
		t.Fatal("a reader waited on the parked thread")
	}

	perTID := map[int32]int{}
	for _, e := range evs {
		perTID[e.TID]++
		if e.TID == 0 && (e.Ref == 0 || e.Ref >= size) {
			t.Fatalf("drain returned thread 0's parked slot: %+v", e)
		}
	}
	if perTID[0] != size-1 || perTID[1] != recorded || perTID[2] != recorded {
		t.Fatalf("drain per thread %v, want %d/%d/%d", perTID, size-1, recorded, recorded)
	}
	var w0, w1 int
	for _, s := range completed {
		switch {
		case s.Req == 1 || s.Req == size+1:
			t.Fatalf("Completed returned the parked slot: %+v", s)
		case s.Req <= size:
			w0++
			if s.Op != "MOVE" || s.Status != "OK" {
				t.Fatalf("span %d decoded names %q/%q", s.Req, s.Op, s.Status)
			}
		default:
			w1++
		}
	}
	if w0 != size-1 || w1 != size {
		t.Fatalf("Completed: %d spans of worker 0, %d of worker 1; want %d and %d", w0, w1, size-1, size)
	}
	for _, got := range [][]Span{ex, slowEx} {
		// Worker 0's exemplars are walls 107 and 106; 106 is being
		// replaced, so the K slowest readable are 107 and worker 1's 11.
		if len(got) != k || got[0].WallNS != 107 || got[1].WallNS != 11 {
			t.Fatalf("exemplars %+v, want walls 107 and 11", got)
		}
	}
	if slowDropped != uint64(fins-size) {
		t.Fatalf("Dropped = %d, want %d (worker 1's overwritten spans)", slowDropped, fins-size)
	}

	finishEv()
	finishSp()
	if evs := tr.Drain(); len(evs) != 1 || evs[0].TID != 0 || evs[0].Ref != size || evs[0].Kind != EvCommit {
		t.Fatalf("after resuming, drain returned %+v, want thread 0's event %d", evs, size)
	}
	if ex := sp.Exemplars(); ex[0].WallNS != 1000 || ex[0].Op != "XFER" || ex[1].WallNS != 107 {
		t.Fatalf("after resuming, exemplars %+v, want walls 1000 and 107", ex)
	}
}

// TestConcurrentReadersNoTearsNoRepeats: writers record into small
// rings that wrap under two concurrent drains and a Completed/Exemplars
// reader. Every record returned is whole (its fields agree with each
// other), and no event is returned by two drains.
func TestConcurrentReadersNoTearsNoRepeats(t *testing.T) {
	const threads, per = 2, 20000
	tr := NewTracer(threads, 8)
	sp := NewSpans(threads, 8, 2)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for tid := 0; tid < threads; tid++ {
		writers.Add(1)
		go func(tid int) {
			defer writers.Done()
			for i := uint64(1); i <= per; i++ {
				tr.SetRequest(tid, i*3)
				tr.Record(tid, EvHelp, int32(i), i)
				s := Span{Req: i, TID: int32(tid), Worker: int32(tid), Tenant: int32(i), StartNS: int64(i), WallNS: int64(i) * 2, Op: "MOVE"}
				s.Stage[StageExec] = int64(i) * 5
				if i%2 == 0 {
					s.Op = "XFER"
				}
				sp.Finish(tid, s)
			}
		}(tid)
	}
	seen := make([]map[[2]uint64]bool, 2)
	for d := range seen {
		seen[d] = map[[2]uint64]bool{}
		readers.Add(1)
		go func(m map[[2]uint64]bool) {
			defer readers.Done()
			for {
				for _, e := range tr.Drain() {
					if e.Peer != int32(e.Ref) || e.Req != e.Ref*3 || e.Kind != EvHelp {
						t.Errorf("torn event %+v", e)
						return
					}
					m[[2]uint64{uint64(e.TID), e.Ref}] = true
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(seen[d])
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			for _, s := range append(sp.Completed(), sp.Exemplars()...) {
				op := "MOVE"
				if s.Req%2 == 0 {
					op = "XFER"
				}
				if s.TID != s.Worker || uint64(s.Tenant) != s.Req || s.StartNS != int64(s.Req) ||
					s.WallNS != 2*s.StartNS || s.Stage[StageExec] != 5*s.StartNS || s.Op != op {
					t.Errorf("torn span %+v", s)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	for key := range seen[0] {
		if seen[1][key] {
			t.Fatalf("event %v returned by both drains", key)
		}
	}
	t.Logf("drains returned %d and %d events, %d dropped", len(seen[0]), len(seen[1]), tr.Dropped())
}
