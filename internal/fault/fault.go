// Package fault is the robustness substrate of the repository: a
// fault-injection hook registry for the descriptor protocol's critical
// windows, and the typed resource-exhaustion error the graceful-
// degradation paths unwind with.
//
// # Why inject faults here
//
// The paper's headline guarantee is that lock-free composition keeps
// the *system* making progress even when individual threads stall (or
// die) mid-operation: once a move's descriptor is published, any peer
// that encounters it helps the operation to completion, so the
// initiator's fate is irrelevant to the operation's. That claim is only
// worth anything if it survives faults injected exactly at the protocol
// windows where a stalled thread would otherwise wedge a lock-based
// design: after the descriptor is announced but before it commits, and
// between the two steps of a hash-map grow. This package names those
// windows as Points and lets tests and the chaos pipeline
// (cmd/kvserver -fault) stall, park, or hard-kill the thread standing
// in them.
//
// # Zero overhead when disabled
//
// Production configurations leave core.Config.Fault nil; every hook
// site is a nil-interface check and nothing else. No counter is
// touched, no map consulted. The hooks cost one predictable branch.
//
// # Actions
//
//   - Stall: sleep for a fixed duration, then continue — a slow thread.
//   - Park: block until the plan's Release is called — an arbitrarily
//     delayed thread (the paper's adversary).
//   - Kill: the goroutine exits via runtime.Goexit — a thread that dies
//     mid-protocol. Its registered Thread is never reusable (hazard
//     slots stay published, its descriptor is never recycled by it);
//     peers complete the operation and the system degrades by exactly
//     one thread slot. Deferred functions still run, so servers can
//     detect the death and retire the worker.
//
// # Triggers
//
// Rules fire deterministically: on exactly the Nth matching hit, on
// every Nth hit, or probabilistically from a seeded xrand stream —
// never from global randomness, so a failing schedule replays.
package fault

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// Point names one injection site: a critical window of the descriptor
// protocol or of a composed pipeline.
type Point uint8

// The injection points. KCAS* fire inside internal/kcas for both the
// pair (DCAS) and general (CASN) protocols; MapMidGrow fires from the
// hash map that sits on top.
const (
	// KCASAfterPublish fires once the operation's descriptor is visible
	// to peers — after the pair protocol's announce CAS (line D10), or
	// after the general protocol's phase-1 acquisition loop — and before
	// its decision is taken. A thread killed here leaves a published,
	// undecided descriptor that peers MUST complete.
	KCASAfterPublish Point = iota
	// KCASBeforeCommit fires after the operation's decision is fixed and
	// before the release CASes install the final values (pair line D28,
	// general phase 2). A thread killed here leaves decided-but-
	// unreleased words that peers (or the retire-time scrub) clean up.
	KCASBeforeCommit
	// KCASBeforeRecycle fires as a descriptor is handed back for reuse
	// (Retire or FreeDirect). A thread killed here leaks exactly one
	// descriptor slot.
	KCASBeforeRecycle
	// MapMidGrow fires between publishing a doubled hash-map directory
	// and linking its first sentinel (internal/hashmap): the new buckets
	// exist but none has an anchor yet, and peers link what they need.
	MapMidGrow
	// NumPoints bounds the Point range.
	NumPoints
)

var pointNames = [NumPoints]string{
	KCASAfterPublish:  "kcas-publish",
	KCASBeforeCommit:  "kcas-commit",
	KCASBeforeRecycle: "kcas-recycle",
	MapMidGrow:        "map-grow",
}

// String returns the spec-grammar name of the point.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Injector is the hook interface the substrate calls at every injection
// point. core.Config.Fault carries one; nil disables injection with no
// overhead beyond the nil check. Fire may sleep, block, or terminate
// the calling goroutine (runtime.Goexit) — it must NOT panic.
type Injector interface {
	Fire(p Point, tid int)
}

// AnyThread disables a trigger's thread filter.
const AnyThread = -1

// Trigger decides, per rule, which hits of an injection point fire.
// Exactly one of Nth/Every/Prob should be set; the zero Trigger never
// fires (use Always for unconditional firing).
type Trigger struct {
	// Nth fires on exactly the nth matching hit (1-based), once.
	Nth uint64
	// Every fires on every every-th matching hit.
	Every uint64
	// Prob fires each matching hit with this probability, drawn from a
	// stream seeded with Seed (deterministic replay).
	Prob float64
	// Seed seeds the Prob stream.
	Seed uint64
	// Skip ignores the first Skip matching hits entirely (they are not
	// counted toward Nth/Every either); use it to let a warmup or
	// prefill phase pass unharmed.
	Skip uint64
	// Thread restricts the rule to one thread id; AnyThread (or 0 via
	// OnThread-less literals is NOT any — use the constructors) matches
	// all threads.
	Thread int
}

// Nth returns a trigger firing on exactly the nth matching hit.
func Nth(n uint64) Trigger { return Trigger{Nth: n, Thread: AnyThread} }

// Every returns a trigger firing on every nth matching hit.
func Every(n uint64) Trigger { return Trigger{Every: n, Thread: AnyThread} }

// Prob returns a trigger firing each hit with probability p, drawn from
// a stream seeded with seed.
func Prob(p float64, seed uint64) Trigger {
	return Trigger{Prob: p, Seed: seed, Thread: AnyThread}
}

// Always returns a trigger firing on every matching hit.
func Always() Trigger { return Every(1) }

// OnThread restricts the trigger to hits from thread tid.
func (t Trigger) OnThread(tid int) Trigger { t.Thread = tid; return t }

// AfterSkip ignores the first n matching hits.
func (t Trigger) AfterSkip(n uint64) Trigger { t.Skip = n; return t }

// actionKind discriminates a rule's action.
type actionKind uint8

const (
	actStall actionKind = iota
	actPark
	actKill
)

// rule is one (point, trigger, action) binding with its firing state.
type rule struct {
	point   Point
	trig    Trigger
	action  actionKind
	stall   time.Duration
	hits    atomic.Uint64
	rngMu   sync.Mutex
	rng     *xrand.State
	oneShot atomic.Bool // Nth rules fire at most once
}

// shouldFire evaluates the trigger against one hit from tid.
func (r *rule) shouldFire(tid int) bool {
	if r.trig.Thread != AnyThread && r.trig.Thread != tid {
		return false
	}
	h := r.hits.Add(1)
	if h <= r.trig.Skip {
		return false
	}
	h -= r.trig.Skip
	switch {
	case r.trig.Nth > 0:
		return h == r.trig.Nth && r.oneShot.CompareAndSwap(false, true)
	case r.trig.Every > 0:
		return h%r.trig.Every == 0
	case r.trig.Prob > 0:
		r.rngMu.Lock()
		x := r.rng.Float64()
		r.rngMu.Unlock()
		return x < r.trig.Prob
	}
	return false
}

// Plan is the concrete Injector: an ordered set of rules. Build one
// with NewPlan and the Stall/Park/Kill registrars (or Parse), hand it
// to core.Config.Fault, and observe it through the counters. A Plan is
// safe for concurrent Fire from every registered thread.
type Plan struct {
	rules []*rule

	parkCh   chan struct{}
	released atomic.Bool

	fired  [NumPoints]atomic.Uint64
	parked atomic.Int64
	kills  atomic.Uint64
}

// NewPlan returns an empty plan (fires nothing until rules are added).
func NewPlan() *Plan {
	return &Plan{parkCh: make(chan struct{})}
}

// Stall adds a rule sleeping d at point p when trig fires. It returns
// the plan for chaining.
func (pl *Plan) Stall(p Point, d time.Duration, trig Trigger) *Plan {
	return pl.add(&rule{point: p, trig: trig, action: actStall, stall: d})
}

// Park adds a rule blocking the hitting goroutine at point p until
// Release is called.
func (pl *Plan) Park(p Point, trig Trigger) *Plan {
	return pl.add(&rule{point: p, trig: trig, action: actPark})
}

// Kill adds a rule terminating the hitting goroutine (runtime.Goexit)
// at point p. The goroutine's deferred functions run; its registered
// Thread must not be reused.
func (pl *Plan) Kill(p Point, trig Trigger) *Plan {
	return pl.add(&rule{point: p, trig: trig, action: actKill})
}

func (pl *Plan) add(r *rule) *Plan {
	if r.trig.Prob > 0 {
		r.rng = xrand.New(r.trig.Seed)
	}
	pl.rules = append(pl.rules, r)
	return pl
}

// Fire implements Injector: evaluate every rule bound to p, in order,
// and run the first one that fires. (Running at most one action per
// hit keeps schedules interpretable: a kill is never preceded by a
// stall at the same hit.)
func (pl *Plan) Fire(p Point, tid int) {
	for _, r := range pl.rules {
		if r.point != p || !r.shouldFire(tid) {
			continue
		}
		pl.fired[p].Add(1)
		switch r.action {
		case actStall:
			time.Sleep(r.stall)
		case actPark:
			if !pl.released.Load() {
				pl.parked.Add(1)
				<-pl.parkCh
				pl.parked.Add(-1)
			}
		case actKill:
			pl.kills.Add(1)
			runtime.Goexit()
		}
		return
	}
}

// Release unblocks every parked goroutine, permanently: parks after
// Release pass straight through. Idempotent.
func (pl *Plan) Release() {
	if pl.released.CompareAndSwap(false, true) {
		close(pl.parkCh)
	}
}

// Fired reports how many actions have run at point p.
func (pl *Plan) Fired(p Point) uint64 { return pl.fired[p].Load() }

// FiredTotal reports actions run across all points.
func (pl *Plan) FiredTotal() uint64 {
	var n uint64
	for i := Point(0); i < NumPoints; i++ {
		n += pl.fired[i].Load()
	}
	return n
}

// Parked reports how many goroutines are blocked in a Park right now.
func (pl *Plan) Parked() int { return int(pl.parked.Load()) }

// Kills reports how many goroutines the plan has terminated.
func (pl *Plan) Kills() uint64 { return pl.kills.Load() }

// Parse builds a Plan from -fault style spec strings, one rule each:
//
//	<point>:<action>[:<mod>[,<mod>...]]
//
//	point:  kcas-publish | kcas-commit | kcas-recycle | map-grow
//	action: stall=<duration> | park | kill
//	mod:    nth=<n> | every=<n> | prob=<p>,seed=<s> | skip=<n> | thread=<tid>
//
// A rule without nth/every/prob fires on every hit. Examples:
//
//	kcas-commit:stall=2ms:every=97
//	kcas-publish:kill:nth=1500
//	map-grow:stall=1ms:prob=0.01,seed=7,skip=500
func Parse(specs []string) (*Plan, error) {
	pl := NewPlan()
	for _, spec := range specs {
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fault: bad spec %q (want point:action[:mods])", spec)
		}
		var point Point
		found := false
		for p := Point(0); p < NumPoints; p++ {
			if pointNames[p] == parts[0] {
				point, found = p, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown point %q in %q", parts[0], spec)
		}
		trig := Always()
		if len(parts) == 3 {
			var err error
			if trig, err = parseMods(parts[2]); err != nil {
				return nil, fmt.Errorf("fault: %v in %q", err, spec)
			}
		}
		switch {
		case parts[1] == "park":
			pl.Park(point, trig)
		case parts[1] == "kill":
			pl.Kill(point, trig)
		case strings.HasPrefix(parts[1], "stall="):
			d, err := time.ParseDuration(strings.TrimPrefix(parts[1], "stall="))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: bad stall duration in %q", spec)
			}
			pl.Stall(point, d, trig)
		default:
			return nil, fmt.Errorf("fault: unknown action %q in %q", parts[1], spec)
		}
	}
	return pl, nil
}

func parseMods(s string) (Trigger, error) {
	trig := Always()
	explicit := false
	for _, mod := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(mod, "=")
		if !ok {
			return trig, fmt.Errorf("bad modifier %q", mod)
		}
		switch key {
		case "nth", "every", "skip":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || (key != "skip" && n == 0) {
				return trig, fmt.Errorf("bad %s value %q", key, val)
			}
			switch key {
			case "nth":
				trig.Nth, trig.Every, explicit = n, 0, true
			case "every":
				trig.Every, explicit = n, true
			case "skip":
				trig.Skip = n
			}
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return trig, fmt.Errorf("bad prob value %q", val)
			}
			trig.Prob, trig.Every, explicit = p, 0, true
		case "seed":
			sd, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return trig, fmt.Errorf("bad seed value %q", val)
			}
			trig.Seed = sd
		case "thread":
			tid, err := strconv.Atoi(val)
			if err != nil || tid < 0 {
				return trig, fmt.Errorf("bad thread value %q", val)
			}
			trig.Thread = tid
		default:
			return trig, fmt.Errorf("unknown modifier %q", key)
		}
	}
	_ = explicit
	return trig, nil
}
