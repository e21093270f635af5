// Command stress runs a long-lived conservation workload over a pair of
// move-ready containers and fails loudly if composition atomicity is
// ever violated (a token lost or duplicated).
//
// Unique tokens circulate between two containers through atomic moves
// and remove/re-insert cycles. Periodically the workload quiesces, every
// token is audited, and circulation resumes. Any mismatch aborts with a
// non-zero exit code.
//
// The rotation covers same-kind pairs (queue/queue, stack/stack,
// map/map, list/list), the paper's queue/stack mix, keyed↔unkeyed
// pairs (map/list, map/queue, list/queue) where a token addressed by key
// on one side travels by position on the other, and map/pqueue, where a
// keyed token on one side surfaces by priority order on the other (all
// re-inserted tokens share one priority, stressing the uniquifier).
// On map/map, half the moves are two-token TransferKeys, so the k-word
// path and its helping run under the audit too; a failed transfer (a
// token absent from the source, its key taken in the target, or the
// two keys due to be linked into one gap of the target) changes
// nothing.
// -rotate cycles through every pairing within one run, one pair per
// audit round, carrying the tokens from pair to pair.
//
//	stress -pair queue/stack -threads 8 -rounds 20 -ops 200000
//	stress -pair map/queue -threads 8
//	stress -rotate -threads 8 -rounds 18
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pqueue"
)

// allPairs is the -rotate order: same-kind pairs first, then the mixed
// keyed↔unkeyed ones.
var allPairs = []string{
	"queue/queue", "stack/stack", "queue/stack",
	"map/map", "list/list", "map/list", "map/queue", "list/queue",
	"map/pqueue",
}

func main() {
	var (
		pairName = flag.String("pair", "queue/stack",
			strings.Join(allPairs, ", "))
		threads  = flag.Int("threads", 8, "worker threads")
		tokens   = flag.Int("tokens", 512, "circulating tokens")
		rounds   = flag.Int("rounds", 10, "audit rounds")
		ops      = flag.Int("ops", 100_000, "operations per thread per round")
		moveBias = flag.Int("movebias", 50, "percent of operations that are moves")
		rotate   = flag.Bool("rotate", false, "cycle through all pairs within one run (one pair per round)")
	)
	flag.Parse()

	rt := repro.NewRuntime(repro.Config{
		MaxThreads:    *threads + 1,
		ArenaCapacity: 1 << 21,
		// The audit lines read the metrics registry, so every counter
		// they print carries the same series name METRICS and STATS
		// expose — one naming scheme across all the stat surfaces.
		Obs: repro.ObsConfig{Metrics: true},
	})
	setup := rt.RegisterThread()
	curPair := *pairName
	if *rotate {
		curPair = allPairs[0]
	}
	a, b, akeyed, bkeyed := buildPair(setup, curPair)
	if a == nil {
		fmt.Fprintf(os.Stderr, "stress: unknown -pair %q\n", curPair)
		os.Exit(2)
	}

	// insertToken seeds tok into c: keyed sides address it by tok,
	// unkeyed sides get key 0 (for the priority queue that parks every
	// token at priority 0, the uniquifier-collision stress). A failed
	// insert here is a harness capacity error (e.g. more tokens than
	// one priority level's uniquifier space), not a data-structure
	// violation — abort loudly rather than let the next audit round
	// report a bogus conservation failure.
	insertToken := func(c repro.MoveReady, keyed bool, tok uint64) {
		k := uint64(0)
		if keyed {
			k = tok
		}
		if !c.Insert(setup, k, tok) {
			fmt.Fprintf(os.Stderr, "stress: setup cannot place token %d (capacity exceeded? lower -tokens)\n", tok)
			os.Exit(2)
		}
	}
	for i := 1; i <= *tokens; i++ {
		tok := uint64(i)
		if i%2 == 0 {
			insertToken(a, akeyed, tok)
		} else {
			insertToken(b, bkeyed, tok)
		}
	}

	workers := make([]*core.Thread, *threads)
	for i := range workers {
		workers[i] = rt.RegisterThread()
	}

	if *rotate {
		fmt.Printf("stress: rotating %d pairs threads=%d tokens=%d rounds=%d ops/round=%d\n",
			len(allPairs), *threads, *tokens, *rounds, *ops)
	} else {
		fmt.Printf("stress: pair=%s threads=%d tokens=%d rounds=%d ops/round=%d\n",
			*pairName, *threads, *tokens, *rounds, *ops)
	}

	// prev windows the registry so each audit line reports per-round
	// deltas; the registry itself stays cumulative (rotation registers
	// new containers' counters alongside the frozen retired ones).
	prev := rt.Obs().Metrics().Snapshot()
	for round := 1; round <= *rounds; round++ {
		roundPair := curPair
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < *threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := workers[w]
				var keys [2]uint64
				rng := uint64(w+1)*0x9e3779b97f4a7c15 + uint64(round)
				next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
				for i := 0; i < *ops; i++ {
					tok := next()%uint64(*tokens) + 1
					doMove := int(next()%100) < *moveBias
					src, dst := a, b
					srcKeyed, dstKeyed := akeyed, bkeyed
					if next()&1 == 0 {
						src, dst = b, a
						srcKeyed, dstKeyed = bkeyed, akeyed
					}
					// Keys address tokens only on keyed sides; a
					// keyed↔unkeyed move scrambles the key→value
					// association, which the value-conservation audit
					// tolerates by design.
					key := func(keyed bool) uint64 {
						if keyed {
							return tok
						}
						return 0
					}
					srcMap, sm := src.(*repro.HashMap)
					dstMap, dm := dst.(*repro.HashMap)
					switch {
					case doMove && sm && dm && next()&1 == 0:
						keys[0], keys[1] = tok, next()%uint64(*tokens)+1
						if keys[1] != tok {
							repro.TransferKeys(th, srcMap, dstMap, keys[:], keys[:])
						}
					case doMove:
						repro.Move(th, src, dst, key(srcKeyed), key(dstKeyed))
					default:
						if v, ok := src.Remove(th, key(srcKeyed)); ok {
							// Re-insert, alternating containers until the
							// held token lands (a keyed slot may be
							// transiently occupied by a concurrent move).
							if !src.Insert(th, key(srcKeyed), v) {
								for !dst.Insert(th, key(dstKeyed), v) &&
									!src.Insert(th, key(srcKeyed), v) {
								}
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Audit: drain and count every token, then reinsert.
		seen := make(map[uint64]int)
		drain := func(c repro.MoveReady, keyed bool) {
			if keyed {
				for k := uint64(1); k <= uint64(*tokens); k++ {
					if v, ok := c.Remove(setup, k); ok {
						seen[v]++
					}
				}
				return
			}
			for {
				v, ok := c.Remove(setup, 0)
				if !ok {
					break
				}
				seen[v]++
			}
		}
		drain(a, akeyed)
		drain(b, bkeyed)
		bad := false
		if len(seen) != *tokens {
			bad = true
		}
		for tok, n := range seen {
			if n != 1 || tok == 0 || tok > uint64(*tokens) {
				bad = true
			}
		}
		if bad {
			fmt.Fprintf(os.Stderr, "stress: ROUND %d (%s) FAILED: %d distinct tokens (want %d)\n",
				round, roundPair, len(seen), *tokens)
			os.Exit(1)
		}
		// The audit line reports the round that just ran: snapshot the
		// registry at the quiescent point and print the window since the
		// previous audit, under the registry's own series names — the
		// same names the kvserver METRICS verb and STATS obs block use,
		// so a grep written against one surface works on all of them.
		// The registry already sums every container's contribution (the
		// map's shards, both sides of the pair, retired rotation pairs'
		// frozen counters).
		snap := rt.Obs().Metrics().Snapshot()
		delta := snap.Sub(prev)
		prev = snap
		// Reinsert for the next round — into the next pair when
		// rotating: every token is drained (a quiescent state), so
		// handing the population to freshly built containers is a pure
		// transfer; the emptied pair becomes garbage.
		if *rotate && round < *rounds {
			curPair = allPairs[round%len(allPairs)]
			a, b, akeyed, bkeyed = buildPair(setup, curPair)
		}
		i := 0
		for tok := range seen {
			tgt, keyed := a, akeyed
			if i%2 == 0 {
				tgt, keyed = b, bkeyed
			}
			insertToken(tgt, keyed, tok)
			i++
		}
		fmt.Printf("round %2d %-12s ok (%6.2fs)  kcas_helps_total=%d kcas_helped_retires_total=%d kcas_stray_cleanups_total=%d kcas_late_p2_total=%d  cas_retries_total=%d\n",
			round, roundPair, time.Since(t0).Seconds(),
			delta.Get("kcas_helps_total"),
			delta.Get("kcas_helped_retires_total"),
			delta.Get("kcas_stray_cleanups_total"),
			delta.Get("kcas_late_p2_total"),
			delta.Get("cas_retries_total"))
	}
	fmt.Println("stress: all rounds passed — conservation intact")
}

// growingMap starts at one bucket per shard, so every round that fills
// it grows the map the tokens are composed over.
func growingMap(t *core.Thread) *repro.HashMap { return repro.NewShardedHashMap(t, 8, 1, 0) }

// buildPair constructs the requested container pair; akeyed/bkeyed
// report whether tokens are addressed by key on each side. Mixed pairs
// (map/list alongside map/queue, list/queue and map/pqueue) give
// keyed↔unkeyed moves long-lived conservation coverage: the keyed side
// selects by token, the unkeyed side by position — or, for the
// priority queue, by priority order, with every re-inserted token
// parked at priority 0 so the uniquifier absorbs the collisions.
func buildPair(t *core.Thread, name string) (a, b repro.MoveReady, akeyed, bkeyed bool) {
	switch name {
	case "queue/queue":
		return repro.NewQueue(t), repro.NewQueue(t), false, false
	case "stack/stack":
		return repro.NewStack(t), repro.NewStack(t), false, false
	case "queue/stack":
		return repro.NewQueue(t), repro.NewStack(t), false, false
	case "map/map":
		return growingMap(t), growingMap(t), true, true
	case "map/list":
		return growingMap(t), repro.NewList(t), true, true
	case "map/queue":
		return growingMap(t), repro.NewQueue(t), true, false
	case "list/list":
		return repro.NewList(t), repro.NewList(t), true, true
	case "list/queue":
		return repro.NewList(t), repro.NewQueue(t), true, false
	case "map/pqueue":
		return growingMap(t), pqueue.New(t), true, false
	default:
		return nil, nil, false, false
	}
}
