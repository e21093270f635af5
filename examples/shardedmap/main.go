// Shardedmap: the resizable map growing live under keyed churn.
//
// A session store starts as a deliberately tiny sharded map and is
// hammered by writer threads until its shards grow several times; a grow
// doubles a shard's bucket directory and moves no entry (each new bucket
// is a sentinel node linked into a split-ordered list), so a session is
// never duplicated or lost and nobody waits. Meanwhile mover threads
// shuttle sessions between the hot store and a cold store with keyed
// atomic moves, and a rebalancer thread links the new buckets' sentinels
// ahead of the operations that need them, in bounded RebalanceStep
// increments.
//
// The demo ends with a conservation audit (every session in exactly one
// store, value intact) and prints how much growing the run absorbed.
//
//	go run ./examples/shardedmap
//	go run ./examples/shardedmap -sessions 200 -threads 2 -ops 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro"
)

func main() {
	var (
		sessions = flag.Int("sessions", 2000, "distinct session keys")
		threads  = flag.Int("threads", 4, "churn threads")
		ops      = flag.Int("ops", 30000, "operations per thread")
	)
	flag.Parse()

	rt := repro.NewRuntime(repro.Config{MaxThreads: *threads + 2})
	setup := rt.RegisterThread()

	// 2 shards × 2 buckets with the default grow threshold: the prefill
	// alone forces several grows per shard.
	hot := repro.NewShardedHashMap(setup, 2, 2, 0)
	cold := repro.NewShardedHashMap(setup, 2, 2, 0)
	for id := uint64(1); id <= uint64(*sessions); id++ {
		hot.Insert(setup, id, id*7) // payload derived from id for auditing
	}
	fmt.Printf("start: %d sessions, hot store %d buckets over %d shards\n",
		hot.Len(setup), hot.Buckets(), hot.Shards())

	var stop atomic.Bool
	var rwg sync.WaitGroup
	reb := rt.RegisterThread()
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for !stop.Load() {
			if !hot.RebalanceStep(reb) && !cold.RebalanceStep(reb) {
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < *threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w+1) * 0x9e3779b97f4a7c15
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < *ops; i++ {
				id := next()%uint64(*sessions) + 1
				switch next() % 3 {
				case 0: // demote: hot → cold, same key, one atomic step
					repro.Move(th, hot, cold, id, id)
				case 1: // promote: cold → hot
					repro.Move(th, cold, hot, id, id)
				default: // lookup during all of the above
					if v, ok := hot.Contains(th, id); ok && v != id*7 {
						fmt.Fprintf(os.Stderr, "CORRUPTION: session %d holds %d\n", id, v)
						os.Exit(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	hot.Quiesce(setup)
	cold.Quiesce(setup)

	lost, dup := 0, 0
	for id := uint64(1); id <= uint64(*sessions); id++ {
		vh, inHot := hot.Contains(setup, id)
		vc, inCold := cold.Contains(setup, id)
		switch {
		case inHot && inCold:
			dup++
		case !inHot && !inCold:
			lost++
		case inHot && vh != id*7, inCold && vc != id*7:
			fmt.Fprintf(os.Stderr, "CORRUPTION: session %d audited wrong\n", id)
			os.Exit(1)
		}
	}
	gh, lh, sh := hot.Stats()
	gc, lc, sc := cold.Stats()
	fmt.Printf("end:   hot %d buckets / cold %d buckets\n", hot.Buckets(), cold.Buckets())
	fmt.Printf("grows=%d sentinels-linked=%d rebalance-steps=%d\n",
		gh+gc, lh+lc, sh+sc)
	if lost != 0 || dup != 0 {
		fmt.Fprintf(os.Stderr, "AUDIT FAILED: %d lost, %d duplicated\n", lost, dup)
		os.Exit(1)
	}
	fmt.Printf("audit: %d sessions, each in exactly one store — conservation intact\n", *sessions)
}
