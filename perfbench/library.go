package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"vcsched/internal/bench"
	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
)

// shaveRounds is core's default probing depth, used by the min-AWCT
// probe the benchmark runs itself.
const shaveRounds = 2

// libOpts are the scheduling options of one workload's library probe.
type libOpts struct {
	core       core.Options // as the workload schedules; pins are set per block
	probeSteps int          // step budget of the min-AWCT deduce probe
}

// layerCounts accumulates what the library probes count.
type layerCounts struct {
	blocks          int
	sgPairs         int
	probes          int
	probeSteps      int
	probeAllocs     uint64
	stepsSpent      int
	stepsUnreported int // blocks whose failed search reported StepsSpent = 0
	awctTried       int
	attempts        int
	attemptsOK      int
	learnProbes     int
	learnHits       int
	solved          int
	tiers           map[string]int
	rungTime        map[string]time.Duration
	rungN           map[string]int
	overrun         time.Duration // summed over blocks
}

func newLayerCounts() *layerCounts {
	return &layerCounts{tiers: map[string]int{}, rungTime: map[string]time.Duration{}, rungN: map[string]int{}}
}

// heapAllocs is the process's cumulative count of heap allocations.
// runtime.ReadMemStats stops the world, which the traced run, sending
// one request at a time, can afford; the count is then exact.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeDeadlines are the exit bounds of the first probe of core's
// min-AWCT computation: the first exit at its dependence-based earliest
// start, every other exit relaxed by the scheduling horizon.
func probeDeadlines(sb *ir.Superblock, m *machine.Config) map[int]int {
	exits := sb.Exits()
	est := sb.EStarts()
	last := exits[len(exits)-1]
	lastBound := est[last]
	horizon := 0
	for n, in := range sb.Instrs {
		horizon += in.Latency
		if v := est[n] + in.Latency - sb.Instrs[last].Latency; v > lastBound {
			lastBound = v
		}
	}
	horizon += (sb.N()+len(sb.LiveIns)+1)*m.BusLatency + 4
	deadlines := make(map[int]int, len(exits))
	for i, x := range exits {
		d := est[x]
		if x == last {
			d = lastBound
		}
		if i > 0 {
			d += horizon
		}
		deadlines[x] = d
	}
	return deadlines
}

// probeLibrary calls each library layer on one block, in order, each
// call in its own span: ir parse and longest distances, the SG build,
// the min-AWCT deduce probe (NewState + Shave under a step budget),
// core.Schedule, cars.Schedule, sched validate and write, and the
// resilient ladder. Failures that the workload's options cannot
// explain are counted in the tally.
func probeLibrary(rec *recorder, b block, o libOpts, lc *layerCounts, tl *tally) {
	rec.nextRequest()
	lc.blocks++
	text := b.text
	if text == "" {
		text = b.sb.String()
	}
	sp := rec.begin("ir.parse")
	_, err := ir.Parse(text)
	sp.end()
	if err != nil {
		tl.fail(fmt.Sprintf("%s: ir.Parse: %v", b.key(), err))
	}
	sp = rec.begin("ir.longest_dist")
	b.sb.LongestDist()
	sp.end()
	sp = rec.begin("sg.build")
	g := sg.Build(b.sb, b.m)
	sp.end()
	lc.sgPairs += g.NumEdges()

	budget := deduce.NewBudget(o.probeSteps)
	a0 := heapAllocs()
	sp = rec.begin("deduce.newstate")
	st, err := deduce.NewState(b.sb, b.m, g, probeDeadlines(b.sb, b.m), deduce.Options{Pins: b.pins, Budget: budget})
	sp.end()
	if err == nil {
		sp = rec.begin("deduce.shave")
		err = st.Shave(shaveRounds)
		sp.end()
	}
	lc.probeAllocs += heapAllocs() - a0
	lc.probes++
	lc.probeSteps += budget.Used()
	if err != nil && !deduce.IsContradiction(err) && !errors.Is(err, deduce.ErrBudget) {
		tl.fail(fmt.Sprintf("%s: min-AWCT probe: %v", b.key(), err))
	}

	opts := o.core
	opts.Pins = b.pins
	sp = rec.begin("core.schedule")
	vc, stats, vcErr := core.Schedule(b.sb, b.m, opts)
	sp.end()
	lc.stepsSpent += stats.StepsSpent
	if vcErr != nil && stats.StepsSpent == 0 {
		lc.stepsUnreported++
	}
	lc.awctTried += stats.AWCTTried
	lc.attempts += stats.AttemptsLaunched
	for _, a := range stats.Attempts {
		if a.Outcome == core.AttemptSucceeded {
			lc.attemptsOK++
		}
	}
	lc.learnProbes += stats.Learn.Probes
	lc.learnHits += stats.Learn.Hits
	if vcErr == nil {
		lc.solved++
	} else if !searchGaveOut(vcErr) {
		tl.fail(fmt.Sprintf("%s: core.Schedule: %v", b.key(), vcErr))
	}

	sp = rec.begin("cars.schedule")
	cs, carsErr := cars.Schedule(b.sb, b.m, b.pins)
	sp.end()
	if carsErr != nil {
		tl.fail(fmt.Sprintf("%s: cars.Schedule: %v", b.key(), carsErr))
		return
	}
	out := cs
	if vc != nil {
		out = vc
	}
	sp = rec.begin("sched.validate")
	err = out.Validate()
	sp.end()
	if err != nil {
		tl.fail(fmt.Sprintf("%s: invalid schedule: %v", b.key(), err))
	}
	var buf strings.Builder
	sp = rec.begin("sched.write_text")
	err = out.WriteText(&buf)
	sp.end()
	if err != nil {
		tl.fail(fmt.Sprintf("%s: sched.WriteText: %v", b.key(), err))
	}

	ladder := resilient.Options{Core: opts}
	sp = rec.begin("resilient.schedule")
	_, outcome, err := resilient.Schedule(b.sb, b.m, ladder)
	sp.end()
	if err != nil {
		tl.fail(fmt.Sprintf("%s: resilient.Schedule: %v", b.key(), err))
		return
	}
	lc.tiers[outcome.Tier.String()]++
	for _, a := range outcome.Attempts {
		lc.rungTime[a.Tier.String()] += a.Elapsed
		lc.rungN[a.Tier.String()]++
	}
	if opts.Timeout > 0 && outcome.Elapsed > opts.Timeout {
		lc.overrun += outcome.Elapsed - opts.Timeout
	}
}

// searchGaveOut reports the two ways the VC search may end without a
// schedule under the workload's limits; the caller falls back to CARS.
func searchGaveOut(err error) bool {
	return errors.Is(err, core.ErrExhausted) || errors.Is(err, core.ErrTimeout)
}

// corpusBench is the paper's evaluation run offline: every block goes
// through core.Schedule under a fixed step budget and through CARS,
// on nproc workers, and the VC schedule is used unless the search gave
// out (the paper's fallback).
type corpusBench struct {
	env    *env
	blocks []block
}

// noThreshold admits every valid VC schedule in bench's fallback policy.
const noThreshold = time.Duration(math.MaxInt64)

const (
	corpusPerApp = 8 // blocks per application (the paper has 120 at scale 1)
	tracedPerApp = 2 // blocks per application in the traced run
	corpusSteps  = 20000
)

func (c *corpusBench) lib() libOpts {
	return libOpts{core: core.Options{MaxSteps: corpusSteps}, probeSteps: corpusSteps}
}

func (c *corpusBench) setup() error {
	c.blocks = corpusBlocks(corpusPerApp, c.env.seed)
	return nil
}

func (c *corpusBench) close() {}

// compiled is one block's result in one sweep. The times are CPU time
// of the worker's thread (see threadCPU).
type compiled struct {
	vcTime time.Duration // core.Schedule
	cpu    time.Duration // core.Schedule and cars.Schedule
	vc     *sched.Schedule
	vcErr  error
	cars   *sched.Schedule
	carErr error
}

func (c *corpusBench) compile(b block) compiled {
	opts := c.lib().core
	opts.Pins = b.pins
	t0 := threadCPU()
	vc, _, vcErr := core.Schedule(b.sb, b.m, opts)
	r := compiled{vcTime: threadCPU() - t0, vc: vc, vcErr: vcErr}
	r.cars, r.carErr = cars.Schedule(b.sb, b.m, b.pins)
	r.cpu = threadCPU() - t0
	return r
}

// sweep compiles the blocks idx names once each on nproc workers;
// out[k] is block idx[k]'s result.
func (c *corpusBench) sweep(idx []int) []compiled {
	out := make([]compiled, len(idx))
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < c.env.nproc; w++ {
		go func() {
			runtime.LockOSThread() // compile times are this thread's CPU time
			defer runtime.UnlockOSThread()
			for k := range next {
				out[k] = c.compile(c.blocks[idx[k]])
			}
			done <- struct{}{}
		}()
	}
	for k := range idx {
		next <- k
	}
	close(next)
	for w := 0; w < c.env.nproc; w++ {
		<-done
	}
	return out
}

// measure runs whole sweeps, always one and another while it still
// fits in the measurement time, then fills the time left with passes
// over the small blocks alone. Each block's compile time is its median
// over every pass that compiled it: the small blocks, which set the
// median, are then timed several times across the run rather than once
// in whatever the host was doing at that moment. Throughput counts the
// whole sweeps only. Schedule quality comes from the first sweep, and
// every later pass must reproduce it.
//
// Compile times are CPU time of the worker's thread, and throughput is
// nproc compiles per CPU-second: the rate the workers would reach with
// their processors to themselves. core.Schedule runs serially here, so
// its wall time is that CPU time plus the time the host or the other
// worker kept it off a processor. On a 2-vCPU VM whose steal time went
// from 3% to 21% between runs, wall-time p50, tail and throughput
// spread by 0.30, 0.27 and 0.20 of their medians over six runs; the
// CPU-time p50 and tail by 0.09 and 0.11. The summary keeps the wall
// rate (wall_blocks_per_s).
func (c *corpusBench) measure() (map[string]metric, map[string]any, error) {
	budget := time.Duration(c.env.seconds * float64(time.Second))
	all := make([]int, len(c.blocks))
	var small []int
	for i, b := range c.blocks {
		all[i] = i
		if b.sb.N() < largeBlock {
			small = append(small, i)
		}
	}
	samples := make([][]time.Duration, len(c.blocks))
	var sweepCPU time.Duration // all compiles of the whole sweeps
	start := time.Now()
	first := c.sweep(all)
	record := func(idx []int, res []compiled, whole bool) {
		for k, i := range idx {
			samples[i] = append(samples[i], res[k].vcTime)
			if whole {
				sweepCPU += res[k].cpu
			}
			if !sameCompile(first[i], res[k]) {
				c.env.tally.fail(fmt.Sprintf("%s: a repeated compile disagrees with the first", c.blocks[i].key()))
			}
		}
	}
	record(all, first, true)
	sweeps := 1
	for elapsed := time.Since(start); elapsed+elapsed/time.Duration(sweeps) <= budget; elapsed = time.Since(start) {
		record(all, c.sweep(all), true)
		sweeps++
	}
	sweepTime := time.Since(start)
	fills := 0
	for last := time.Duration(0); len(small) > 0 && time.Since(start)+last <= budget; fills++ {
		t0 := time.Now()
		record(small, c.sweep(small), false)
		last = time.Since(t0)
	}
	c.env.tally.attempt(sweeps*len(all) + fills*len(small))

	apps := map[string]*bench.AppResult{} // by application and machine
	solved := 0
	perBlock := make([]time.Duration, len(c.blocks))
	for i, b := range c.blocks {
		r := first[i]
		perBlock[i] = median(samples[i])
		if r.carErr != nil {
			c.env.tally.fail(fmt.Sprintf("%s: cars.Schedule: %v", b.key(), r.carErr))
			continue
		}
		if err := r.cars.Validate(); err != nil {
			c.env.tally.fail(fmt.Sprintf("%s: invalid CARS schedule: %v", b.key(), err))
			continue
		}
		br := bench.BlockResult{App: b.app, Block: b.sb.Name, N: b.sb.N(), ExecCount: b.sb.ExecCount, CARSAWCT: r.cars.AWCT()}
		switch {
		case r.vcErr == nil:
			if err := r.vc.Validate(); err != nil {
				c.env.tally.fail(fmt.Sprintf("%s: invalid VC schedule: %v", b.key(), err))
				continue
			}
			solved++
			br.VCOK, br.VCAWCT = true, r.vc.AWCT()
		case !searchGaveOut(r.vcErr):
			c.env.tally.fail(fmt.Sprintf("%s: core.Schedule: %v", b.key(), r.vcErr))
			continue
		}
		k := b.app + "/" + b.m.Key()
		if apps[k] == nil {
			apps[k] = &bench.AppResult{App: b.app, Machine: b.m.Name}
		}
		apps[k].Blocks = append(apps[k].Blocks, br)
	}
	// The fallback is the step budget's, not a compile-time threshold's,
	// so no threshold applies. Keys are visited in order so that the
	// geometric mean sums its logarithms in the same order every run.
	keys := make([]string, 0, len(apps))
	for k := range apps {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var speedups []float64
	for _, k := range keys {
		speedups = append(speedups, apps[k].Speedup(noThreshold))
	}
	lat := summarize(perBlock)
	e2e := map[string]metric{
		"p50_ms":           {lat.p50, "ms"},
		"tail_ms":          {lat.tail, "ms"},
		"throughput_per_s": {float64(c.env.nproc*sweeps*len(all)) / sweepCPU.Seconds(), "1/s"},
		"awct_speedup":     {geomean(speedups), "ratio"},
	}
	summary := map[string]any{
		"blocks":            len(c.blocks),
		"sweeps":            sweeps,
		"fill_passes":       fills,
		"wall_blocks_per_s": float64(sweeps*len(all)) / sweepTime.Seconds(),
		"tail_pct":          lat.tailPct,
		"tail_samples":      lat.n,
		"vc_solved_frac":    ratio(float64(solved), float64(len(c.blocks))),
	}
	return e2e, summary, nil
}

// sameCompile: a repeated sweep must give the same verdict and AWCT.
func sameCompile(a, b compiled) bool {
	if (a.vcErr == nil) != (b.vcErr == nil) || (a.carErr == nil) != (b.carErr == nil) {
		return false
	}
	if a.vc != nil && a.vc.AWCT() != b.vc.AWCT() {
		return false
	}
	return a.cars == nil || a.cars.AWCT() == b.cars.AWCT()
}

// trace compiles the first tracedPerApp blocks of every application on
// every machine one at a time, each first untraced and then through the
// library probe with spans, whose core and CARS spans are the traced
// end-to-end time. Alternating block by block exposes both passes to
// the same drift of the host.
func (c *corpusBench) trace(rec *recorder) (map[string]metric, error) {
	var traced []block
	for _, b := range c.blocks {
		if b.idx < tracedPerApp {
			traced = append(traced, b)
		}
	}
	c.env.tally.attempt(2 * len(traced))
	var untraced time.Duration
	lc := newLayerCounts()
	for _, b := range traced {
		t0 := time.Now()
		r := c.compile(b)
		untraced += time.Since(t0)
		if r.carErr != nil || (r.vcErr != nil && !searchGaveOut(r.vcErr)) {
			c.env.tally.fail(fmt.Sprintf("%s: compile failed: vc %v, cars %v", b.key(), r.vcErr, r.carErr))
		}
		rec.on.Store(true)
		probeLibrary(rec, b, c.lib(), lc, c.env.tally)
		rec.on.Store(false)
	}
	spans := groupSpans(rec.finalize())
	tracedTime := spans.total("core.schedule") + spans.total("cars.schedule")
	m := layerMetrics(spans, lc)
	addServedMetrics(m, spans, fleetCounts{})
	m["load.gen_lag_ms"] = metric{0, "ms"}
	m["trace.overhead_frac"] = metric{ratio(float64(tracedTime), float64(untraced)) - 1, "frac"}
	return m, nil
}
