// Package loadsim is the kubemark-style synthetic load harness for
// the scheduling service: declarative scenarios (rps ramp stages,
// duplicate rate, deadline mix, batch size, concurrency) drive
// internal/service in-process and measure service-level objectives —
// latency percentiles, cache hit rate, shed rate, the error-taxonomy
// histogram, and a hard-failure count that must be zero.
//
// Two ingredients make scenarios cheap and deterministic enough to
// gate CI on:
//
//   - hollow workers: the resilient ladder is swapped (via the
//     service.Runner seam) for a recorded-cost stub whose per-
//     fingerprint cost and result bytes are pure functions of the
//     fingerprint, so the fingerprint → cache → coalesce → admit →
//     work pipeline is exercised at very high request counts without
//     burning scheduler CPU;
//   - a virtual clock: sleeping advances a counter instead of
//     blocking, so a scenario that simulates seconds of traffic runs
//     in microseconds and measures identical latencies every run.
//
// cmd/vcslo replays the checked-in suite under scenarios/ and emits
// BENCH_service.json; cmd/benchgate -service compares it against the
// checked-in baseline with tolerance bands, making a service-level
// regression a red build.
package loadsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/difftest"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/leakcheck"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/service"
	"vcsched/internal/stats"
)

// statsWait bounds the real-time wait for service counters to settle
// in the overload flow.
const statsWait = 10 * time.Second

// Run executes one scenario against a fresh service instance and
// returns the measured report.
func Run(sc *Scenario) (*Report, error) {
	d := sc.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	m, err := machine.ByKey(d.Machine)
	if err != nil {
		return nil, fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
	}

	var clock Clock = WallClock{}
	if d.VirtualClock {
		clock = NewVirtualClock()
	}

	coreOpts := core.Options{MaxSteps: d.Service.MaxSteps}
	pool, err := buildPool(&d, m, coreOpts)
	if err != nil {
		return nil, err
	}

	cfg := service.Config{
		Workers:          d.Service.Workers,
		QueueDepth:       d.Service.QueueDepth,
		CacheEntries:     d.Service.CacheEntries,
		DefaultDeadline:  time.Duration(d.Service.DefaultDeadlineMS) * time.Millisecond,
		WatchdogGrace:    time.Duration(d.Service.WatchdogGraceMS) * time.Millisecond,
		BreakerThreshold: d.Service.BreakerThreshold,
		BreakerCooloff:   time.Duration(d.Service.BreakerCooloffMS) * time.Millisecond,
		Now:              clock.Now,
		Ladder:           resilient.Options{Core: coreOpts},
	}
	if d.VirtualClock {
		// On simulated time the real-time sweeper is both meaningless
		// (no wall time passes while an execution "runs") and a source
		// of nondeterminism (it races the retrospective overshoot check
		// for who publishes the kill). Park it; virtual watchdog kills
		// are judged deterministically at completion.
		cfg.WatchdogInterval = time.Hour
	}
	var hollow *HollowRunner
	if d.Hollow != nil {
		hcfg := HollowConfig{
			CostMin: time.Duration(d.Hollow.CostMinMS * float64(time.Millisecond)),
			CostMax: time.Duration(d.Hollow.CostMaxMS * float64(time.Millisecond)),
			Clock:   clock,
		}
		if len(d.Hollow.Poison) > 0 {
			hcfg.Poison = make(map[string]bool, len(d.Hollow.Poison))
			for _, p := range d.Hollow.Poison {
				hcfg.Poison[pool[p].fp] = true
			}
		}
		hollow = NewHollowRunner(hcfg)
		cfg.Runner = hollow
	}

	// Chaos scenarios take over the (global) faultpoint registry and
	// sleeper for the duration of the run: KindSleep stalls advance the
	// virtual clock instead of burning real seconds, and the registry is
	// reset afterwards no matter how the run ends. The goroutine
	// baseline is captured before the service spins up so the post-drain
	// leak check covers the service's own goroutines too.
	chaotic := len(d.Faults) > 0 || (d.Hollow != nil && len(d.Hollow.Poison) > 0)
	baseline := runtime.NumGoroutine()
	if d.VirtualClock {
		prevSleeper := faultpoint.SetSleeper(clock.Sleep)
		defer faultpoint.SetSleeper(prevSleeper)
	}
	var chaos *chaosController
	if chaotic {
		chaos = newChaosController(d.Faults)
		defer faultpoint.Reset()
	}

	// Fleet mode stands up N shard replicas behind the in-process
	// consistent-hash front-end instead of one service; both expose the
	// same submitter surface to the stage loop.
	var (
		svc    *service.Service
		flt    *fleet
		target submitter
	)
	if d.Fleet != nil {
		flt = newFleet(d.Fleet, cfg)
		target = flt
		defer flt.Close()
	} else {
		svc = service.New(cfg)
		target = svc
		defer svc.Close()
	}

	col := &collector{
		rep:       Report{Scenario: d.Name, Runs: 1, Taxonomy: map[string]int{}},
		schedules: map[string]string{},
	}
	start := clock.Now()
	if d.Overload != nil {
		err = runOverload(&d, svc, hollow, pool, m, coreOpts, clock, col)
	} else {
		err = runStages(&d, target, pool, m, coreOpts, clock, chaos, col)
	}
	if err != nil {
		return nil, err
	}
	col.rep.DurationMS = stats.Millis(clock.Now().Sub(start))

	// Drain before snapshotting the service counters: watchdog leaks
	// must have settled (a residue means a worker execution never
	// returned) and the breaker/watchdog totals must be final. Fleet
	// runs drain every shard and sum their counters.
	var st service.Stats
	if flt != nil {
		flt.Close()
		st = service.MergeStats(flt.stats()...)
	} else {
		svc.Close()
		st = svc.Stats()
	}
	col.rep.WatchdogKills = int(st.WatchdogKills)
	col.rep.WatchdogLeaks = int(st.WatchdogLeaks)
	col.rep.BreakerTrips = int(st.BreakerTrips)
	col.rep.BreakerFastFails = int(st.BreakerFastFails)
	if chaotic {
		if col.rep.WatchdogLeaks != 0 {
			return nil, fmt.Errorf("loadsim: scenario %s: %d watchdog leaks survived the drain", d.Name, col.rep.WatchdogLeaks)
		}
		if err := leakcheck.Settle(baseline, 0); err != nil {
			return nil, fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
		}
	}
	if flt != nil {
		col.rep.Shards = len(flt.shards)
		col.rep.LeaderExecs = hollow.Calls()
		for _, src := range pool {
			n := hollow.CallsFor(src.fp)
			if n > 0 {
				col.rep.DistinctSources++
			}
			if d.Fleet.ExactOnce && n > 1 {
				return nil, fmt.Errorf("loadsim: scenario %s: fingerprint %s executed %d times across the fleet (exact_once requires 1)",
					d.Name, src.fp, n)
			}
		}
	}
	col.rep.finalize()
	return &col.rep, nil
}

// source is one pool entry: a generated superblock plus the request
// template fields that give it a distinct fingerprint.
type source struct {
	sb *ir.Superblock
	fp string
}

// buildPool generates Gen superblocks with pairwise-distinct
// fingerprints (the generator very occasionally repeats a block, and
// the overload flow needs genuinely unique fingerprints).
func buildPool(d *Scenario, m *machine.Config, opts core.Options) ([]source, error) {
	g := difftest.NewGen(d.Seed, d.MaxInstrs)
	pool := make([]source, 0, d.Gen)
	seen := make(map[string]bool, d.Gen)
	for tries := 0; len(pool) < d.Gen; tries++ {
		if tries > 20*d.Gen {
			return nil, fmt.Errorf("loadsim: scenario %s: generator produced only %d distinct fingerprints of %d",
				d.Name, len(pool), d.Gen)
		}
		sb := g.Next()
		fp := service.Fingerprint(&service.Request{SB: sb, Machine: m, PinSeed: d.PinSeed, Core: opts})
		if seen[fp] {
			continue
		}
		seen[fp] = true
		pool = append(pool, source{sb: sb, fp: fp})
	}
	// The rename changes the canonical form, so the recorded
	// fingerprints are recomputed to match what a submission of this
	// source will actually hash to (the poison set is keyed by them).
	for i := range pool {
		pool[i].sb.Name = fmt.Sprintf("%s-src%03d", d.Name, i)
		pool[i].fp = service.Fingerprint(&service.Request{SB: pool[i].sb, Machine: m, PinSeed: d.PinSeed, Core: opts})
	}
	return pool, nil
}

func (d *Scenario) request(m *machine.Config, opts core.Options, src source, deadline time.Duration) *service.Request {
	return &service.Request{SB: src.sb, Machine: m, PinSeed: d.PinSeed, Deadline: deadline, Core: opts}
}

// submission is one pre-drawn unit of offered load: the source picks
// for a batch, its deadline, and the pacing sleep that precedes it.
// Drawing every submission up front (single-threaded, seeded rng)
// makes the offered sequence deterministic regardless of worker
// interleaving.
type submission struct {
	picks    []int
	deadline time.Duration
	pace     time.Duration
}

// drawSubmissions materializes the stage ramp into the deterministic
// submission sequence.
func drawSubmissions(d *Scenario) []submission {
	rng := rand.New(rand.NewSource(d.Seed))
	var subs []submission
	var totalWeight float64
	for _, b := range d.DeadlineMix {
		totalWeight += b.Weight
	}
	picks := 0
	for _, st := range d.Stages {
		pace, _ := PacingInterval(st.RPS) // validated already
		for i := 0; i < st.Requests; i++ {
			s := submission{picks: make([]int, d.Batch), pace: pace}
			for b := range s.picks {
				if picks > 0 && rng.Float64() < d.DupRate {
					s.picks[b] = rng.Intn(min(picks, d.Gen))
				} else {
					s.picks[b] = picks % d.Gen
				}
				picks++
			}
			if totalWeight > 0 {
				x := rng.Float64() * totalWeight
				for _, band := range d.DeadlineMix {
					x -= band.Weight
					if x < 0 {
						s.deadline = band.duration()
						break
					}
				}
			}
			subs = append(subs, s)
		}
	}
	return subs
}

// runStages offers the ramp. Concurrency 1 is a fully synchronous
// loop — pacing, submission and measurement interleave in one
// goroutine, so virtual-clock latencies are exact. Higher concurrency
// uses a dispatcher plus a worker pool like cmd/vcload.
func runStages(d *Scenario, svc submitter, pool []source, mach *machine.Config, opts core.Options, clock Clock, chaos *chaosController, col *collector) error {
	subs := drawSubmissions(d)

	deliver := func(s submission) {
		t0 := clock.Now()
		if len(s.picks) == 1 {
			res := svc.Submit(d.request(mach, opts, pool[s.picks[0]], s.deadline))
			col.record(clock.Now().Sub(t0), res)
			return
		}
		reqs := make([]*service.Request, len(s.picks))
		for i, p := range s.picks {
			reqs[i] = d.request(mach, opts, pool[p], s.deadline)
		}
		out := svc.SubmitBatch(reqs)
		col.record(clock.Now().Sub(t0), out...)
	}

	if d.Concurrency == 1 {
		start := clock.Now()
		for _, s := range subs {
			clock.Sleep(s.pace)
			if chaos != nil {
				chaos.apply(clock.Now().Sub(start))
			}
			deliver(s)
		}
		if chaos != nil {
			chaos.stop()
		}
		return nil
	}

	jobs := make(chan submission)
	var wg sync.WaitGroup
	for w := 0; w < d.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				deliver(s)
			}
		}()
	}
	for _, s := range subs {
		clock.Sleep(s.pace)
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return nil
}

// runOverload measures admission control deterministically: hold the
// hollow gate so workers+queue fill and stay full, offer Extra more
// requests that must all shed, then release the gate and let the
// admitted work finish. Shed rate = extra/(fill+extra) exactly, with
// no race against worker progress.
func runOverload(d *Scenario, svc *service.Service, hollow *HollowRunner, pool []source, mach *machine.Config, opts core.Options, clock Clock, col *collector) error {
	fill := d.Service.Workers + d.Service.QueueDepth

	hollow.Hold()
	defer hollow.Release()

	var wg sync.WaitGroup
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := clock.Now()
				res := svc.Submit(d.request(mach, opts, pool[i], 0))
				col.record(clock.Now().Sub(t0), res)
			}(i)
		}
	}
	// The workers must hold their requests before the queue fills:
	// submitted all at once, QueueDepth+1 requests can reach the queue
	// before any worker dequeues, and one of the fill would shed.
	submit(0, d.Service.Workers)
	err := waitStats(svc, func(service.Stats) bool { return hollow.Calls() == d.Service.Workers })
	if err == nil {
		submit(d.Service.Workers, fill)
		err = waitStats(svc, func(st service.Stats) bool {
			return st.CacheMisses == int64(fill) && st.QueueLen == d.Service.QueueDepth
		})
	}
	if err != nil {
		hollow.Release()
		wg.Wait()
		return fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
	}
	for j := 0; j < d.Overload.Extra; j++ {
		t0 := clock.Now()
		res := svc.Submit(d.request(mach, opts, pool[fill+j], 0))
		col.record(clock.Now().Sub(t0), res)
	}
	hollow.Release()
	wg.Wait()
	return nil
}

// waitStats polls the service's counter snapshot (its only externally
// visible intermediate state) until cond holds.
func waitStats(svc *service.Service, cond func(service.Stats) bool) error {
	deadline := time.Now().Add(statsWait)
	for time.Now().Before(deadline) {
		if cond(svc.Stats()) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("service counters did not settle within %v: %+v", statsWait, svc.Stats())
}

// collector accumulates the report under a lock (the concurrent paths
// record from many goroutines). schedules remembers the first result
// bytes seen per fingerprint so warm==cold byte identity is checked on
// every later hit — across chaos windows included.
type collector struct {
	mu        sync.Mutex
	rep       Report
	schedules map[string]string
}

func (c *collector) record(lat time.Duration, results ...service.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Requests++
	c.rep.Latencies = append(c.rep.Latencies, lat)
	for _, r := range results {
		c.rep.Blocks++
		c.rep.Taxonomy[r.Taxonomy]++
		switch {
		case r.HardFailure:
			// The chaos layer marks every failure it caused on purpose
			// with "injected" (fault-window panics, hollow poison); the
			// escaped-hard-failure invariant only counts the rest.
			if strings.Contains(r.Err, "injected") {
				c.rep.Injected++
			} else {
				c.rep.HardFailures++
			}
		case r.Shed:
			c.rep.Shed++
		case r.Taxonomy == "timeout":
			c.rep.Timeouts++
		case r.Taxonomy == "poisoned":
			c.rep.Poisoned++
		case r.Err == "":
			c.rep.OK++
		}
		if r.CacheHit {
			c.rep.CacheHits++
		}
		if r.Coalesced {
			c.rep.Coalesced++
		}
		if r.Err == "" && !r.Shed && r.Schedule != "" {
			if prev, seen := c.schedules[r.Fingerprint]; !seen {
				c.schedules[r.Fingerprint] = r.Schedule
			} else if prev != r.Schedule {
				c.rep.IdentityViolations++
			}
		}
	}
}
