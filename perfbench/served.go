package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/service"
)

// reply is one response as the client saw it.
type reply struct {
	resp *service.WireResponse
	err  error
}

func send(fl *fleet, b block, pinSeed int64, timeout time.Duration) reply {
	resp, err := fl.client.Schedule(wire(b, pinSeed, timeout, corpusSteps))
	return reply{resp, err}
}

// openLoop sends n requests at the given rate with at most slots in
// flight. Request i is due at start + i/rate. Its latency runs from
// when it was due, so a stall also counts against the requests it holds
// up (no coordinated omission), including time spent waiting for a free
// slot. When the generator is early it sleeps until the request is due,
// and then the clock starts when the sleep returns: how late the timer
// woke is the generator's lateness, not the system's, and lag[i]
// reports it, as how late request i was actually sent.
func openLoop(n int, rate float64, slots int, sendOne func(i int)) (lat, lag []time.Duration) {
	lat = make([]time.Duration, n)
	lag = make([]time.Duration, n)
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		from := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			from = time.Now()
		}
		sem <- struct{}{}
		lag[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendOne(i)
			lat[i] = time.Since(from)
			<-sem
		}()
	}
	wg.Wait()
	return lat, lag
}

// carsSpeedup is the geometric mean over blocks of the CARS schedule's
// AWCT over the served schedule's.
func carsSpeedup(blocks []block, served []float64, tl *tally) float64 {
	var rs []float64
	for i, b := range blocks {
		cs, err := cars.Schedule(b.sb, b.m, b.pins)
		if err != nil {
			tl.fail(fmt.Sprintf("%s: cars.Schedule: %v", b.key(), err))
			continue
		}
		if served[i] > 0 {
			rs = append(rs, cs.AWCT()/served[i])
		}
	}
	return geomean(rs)
}

// hotBench is the service-hot workload. Each one-second cycle runs an
// open loop of repeated requests for a pool of small corpus blocks
// (reads, served from the shard caches) with a small share of fresh
// blocks (writes, which miss and insert), then a closed loop of nproc
// clients sending reads, which gives the latency and rate metrics.
type hotBench struct {
	env       *env
	rng       *rand.Rand      // the seeded draw, continued by the traced run
	seen      map[string]bool // blocks drawn so far
	pool      []block
	writes    []block
	seq       []int // open-loop request i: a pool index, or -(w+1) for write w
	fl        *fleet
	cold      []service.WireResult // warm-up (cold) result of each pool block
	firstCold []service.WireResult // the first set-up's; later set-ups must match it
}

// The traffic mix is that of the repository's recorded fleet scenario,
// scenarios/81_fleet_dedup_n4.json: 64 sources of at most 12
// instructions offered at 400 requests/s, of which 64 of 1200 requests
// miss (BENCH_service.json records its hit rate as 94.7%). Here the
// misses are fresh corpus blocks rather than first sightings, so the
// share stays the same for as long as the loop runs.
const (
	hotPool      = 64          // pooled blocks; every one fits both shard caches
	hotMaxN      = 12          // instructions per block at most: the DP work stays small
	hotWriteFrac = 64.0 / 1200 // share of requests that carry a fresh block
	hotRate      = 400         // offered requests per second in the open loop
	// Each cycle gives the open loop 60% of its time (7200 requests in
	// a 30 s run) and the closed loop the rest, so that both see the
	// same stretches of the host's load.
	hotCycle     = time.Second
	hotOpenShare = 0.6
	// hotTailQuantile is where tail_ms reads the closed loop's
	// latencies. Above it the host's steal time sets the value: over
	// eight runs on a 2-vCPU VM with 13-30% steal, the spread between
	// runs (quartile distance over the median) was 0.06 at p50, 0.08 at
	// p75, and 0.28 at p90.
	hotTailQuantile = 0.75
	hotTraceReqs    = 300 // requests in the traced run's list
	hotLagSeconds   = 3   // open-loop time of the traced run's generator-lag phase
	// hotDeadline is never reached by these blocks, so every result is
	// deterministic and cacheable.
	hotDeadline = 30 * time.Second
)

func (h *hotBench) setup() error {
	h.close()
	h.rng = rand.New(rand.NewSource(h.env.seed))
	h.seen = map[string]bool{}
	pool, err := smallDraw(h.rng, hotPool, hotMaxN, h.seen, h.env.pinSeed)
	if err != nil {
		return err
	}
	h.pool = pool
	var nw int
	h.seq, nw = h.drawSeq(int(hotRate * h.env.seconds * hotOpenShare))
	if h.writes, err = smallDraw(h.rng, nw, hotMaxN, h.seen, h.env.pinSeed); err != nil {
		return err
	}
	if h.fl, err = startFleet(h.env.rec, corpusSteps); err != nil {
		return err
	}
	h.cold = make([]service.WireResult, len(pool))
	h.env.tally.attempt(len(pool))
	for i, b := range pool {
		r, err := checkServed(b, send(h.fl, b, h.env.pinSeed, hotDeadline))
		if err != nil {
			h.env.tally.fail("warm-up " + err.Error())
		}
		h.cold[i] = r
	}
	if h.firstCold == nil {
		h.firstCold = h.cold
	}
	for i := range h.cold {
		if !sameBytes(h.cold[i], h.firstCold[i]) {
			h.env.tally.fail(fmt.Sprintf("%s: cold result differs between set-ups", pool[i].key()))
		}
	}
	return nil
}

func (h *hotBench) close() {
	if h.fl != nil {
		h.fl.close()
		h.fl = nil
	}
}

// blockOf resolves a sequence entry.
func (h *hotBench) blockOf(e int, writes []block) block {
	if e < 0 {
		return writes[-e-1]
	}
	return h.pool[e]
}

// check checks one reply. A write is validated in full. A read must
// carry the bytes of its block's cold result, which set-up validated in
// full, so equal bytes make it exactly as valid. Reads are checked as
// they arrive, so the thousands of read replies stay out of the heap
// the run measures.
func (h *hotBench) check(e int, writes []block, r reply) service.WireResult {
	if e < 0 {
		res, err := checkServed(writes[-e-1], r)
		if err != nil {
			h.env.tally.fail(err.Error())
		}
		return res
	}
	key := h.pool[e].key()
	switch {
	case r.err != nil:
		h.env.tally.fail(fmt.Sprintf("%s: transport: %v", key, r.err))
	case len(r.resp.Results) != 1:
		h.env.tally.fail(fmt.Sprintf("%s: %d results for one block", key, len(r.resp.Results)))
	case !sameBytes(r.resp.Results[0], h.cold[e]):
		res := r.resp.Results[0]
		h.env.tally.fail(fmt.Sprintf("%s: warm result differs from cold (%s %s)", key, res.Taxonomy, res.Error))
	}
	return h.cold[e]
}

func (h *hotBench) measure() (map[string]metric, map[string]any, error) {
	cycles := max(1, int(h.env.seconds/hotCycle.Seconds()))
	perCycle := len(h.seq) / cycles
	closedFor := time.Duration(float64(hotCycle) * (1 - hotOpenShare))
	rngs := make([]*rand.Rand, h.env.nproc)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(h.env.seed*1000003 + int64(c)))
	}
	writeReplies := make([]reply, len(h.writes))
	var lat, lag, closedLat []time.Duration
	rates := make([]float64, 0, cycles)
	for c := 0; c < cycles; c++ {
		seq := h.seq[c*perCycle : (c+1)*perCycle]
		if c == cycles-1 {
			seq = h.seq[c*perCycle:]
		}
		l, g := openLoop(len(seq), hotRate, h.env.nproc, func(i int) {
			e := seq[i]
			r := send(h.fl, h.blockOf(e, h.writes), h.env.pinSeed, hotDeadline)
			if e >= 0 {
				h.check(e, nil, r)
			} else {
				writeReplies[-e-1] = r
			}
		})
		lat = append(lat, l...)
		lag = append(lag, g...)
		cl, took := h.closedLoop(closedFor, rngs)
		closedLat = append(closedLat, cl...)
		rates = append(rates, float64(len(cl))/took.Seconds())
	}

	h.env.tally.attempt(len(h.seq) + len(closedLat))
	blocks := append(append([]block(nil), h.pool...), h.writes...)
	awct := make([]float64, 0, len(blocks))
	for _, r := range h.cold {
		awct = append(awct, r.AWCT)
	}
	for w, r := range writeReplies {
		awct = append(awct, h.check(-w-1, h.writes, r).AWCT)
	}

	// The metrics come from the closed loop, whose clients keep the
	// processors busy. Between the open loop's requests they sit idle,
	// and there a virtual machine's wake-up delays set the latency: on a
	// 2-vCPU host the open loop's median (1.1-1.7 ms) is twice the
	// closed loop's (0.6-0.7 ms) at a sixth of the load. The rate is
	// nproc over the median read latency, the closed loop's rate by
	// Little's law with the median in place of the mean. A vCPU the host
	// takes away stalls the reads on it; over sets of six to ten runs
	// with up to 37% steal that spread the mean and the raw completion
	// rate (closed_rps in the summary) by 15-42% of their medians, and
	// the median latency by 2-8%.
	closed := summarize(closedLat)
	open := summarize(lat)
	e2e := map[string]metric{
		"p50_ms":           {closed.p50, "ms"},
		"tail_ms":          {quantile(msList(closedLat), hotTailQuantile), "ms"},
		"throughput_per_s": {float64(h.env.nproc) / (closed.p50 / 1000), "1/s"},
		"awct_speedup":     {carsSpeedup(blocks, awct, h.env.tally), "ratio"},
	}
	summary := map[string]any{
		"offered_rps":    hotRate,
		"open_requests":  len(h.seq),
		"writes":         len(h.writes),
		"cycles":         cycles,
		"tail_pct":       100 * hotTailQuantile,
		"tail_samples":   len(closedLat),
		"closed_tail_ms": closed.tail,
		"open_p50_ms":    open.p50,
		"open_tail_ms":   open.tail,
		"closed_rps":     median(rates),
		"gen_lag_ms":     summarize(lag).tail,
	}
	return e2e, summary, nil
}

// closedLoop runs nproc clients for d, each sending its next read as
// soon as the previous one is answered. It returns every read's
// latency and the time from the start until the last one was answered.
func (h *hotBench) closedLoop(d time.Duration, rngs []*rand.Rand) ([]time.Duration, time.Duration) {
	perClient := make([][]time.Duration, len(rngs))
	var wg sync.WaitGroup
	start := time.Now()
	for c, rng := range rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				e := rng.Intn(len(h.pool))
				t0 := time.Now()
				h.check(e, nil, send(h.fl, h.pool[e], h.env.pinSeed, hotDeadline))
				perClient[c] = append(perClient[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	return slices.Concat(perClient...), took
}

// drawSeq draws a request list of n entries with the open loop's mix:
// a pool index for a read, -(w+1) for write w. nw is the write count.
func (h *hotBench) drawSeq(n int) (seq []int, nw int) {
	seq = make([]int, n)
	for i := range seq {
		if h.rng.Float64() < hotWriteFrac {
			nw++
			seq[i] = -nw
		} else {
			seq[i] = h.rng.Intn(len(h.pool))
		}
	}
	return seq, nw
}

// interleave sends n requests one at a time, request i first untraced
// through send(i, false) and then traced, with the recorder on, through
// send(i, true). Alternating request by request exposes both passes to
// the same drift of the host. It returns the tracing overhead over the
// requests counted selects: the median traced time over the median
// untraced time, minus 1. Medians keep a single late wake-up of the
// host out of the comparison.
func interleave(rec *recorder, n int, send func(i int, traced bool), counted func(i int) bool) float64 {
	var untraced, traced []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		send(i, false)
		t1 := time.Now()
		rec.on.Store(true)
		rec.nextRequest()
		sp := rec.begin("vcclient")
		send(i, true)
		sp.end()
		rec.on.Store(false)
		if counted(i) {
			untraced = append(untraced, t1.Sub(t0))
			traced = append(traced, time.Since(t1))
		}
	}
	return ratio(float64(median(traced)), float64(median(untraced))) - 1
}

// trace runs three phases. First the open loop runs for a few seconds
// on the set-up fleet, for how late the generator runs. Then one
// request list is sent one request at a time, each request untraced to
// the set-up fleet and traced to a second fleet warmed the same way.
// The two passes carry the same reads; each has its own fresh writes,
// so that both miss. trace.overhead_frac compares the reads alone,
// which are cache hits in both passes. The library probe then runs on
// every distinct block of the traced pass.
func (h *hotBench) trace(rec *recorder) (map[string]metric, error) {
	nLag := min(len(h.seq), hotRate*hotLagSeconds)
	lagReplies := make([]reply, nLag)
	_, lag := openLoop(nLag, hotRate, h.env.nproc, func(i int) {
		lagReplies[i] = send(h.fl, h.blockOf(h.seq[i], h.writes), h.env.pinSeed, hotDeadline)
	})
	for i, r := range lagReplies {
		h.check(h.seq[i], h.writes, r)
	}
	h.env.tally.attempt(nLag)

	seq, nw := h.drawSeq(hotTraceReqs)
	writesA, err := smallDraw(h.rng, nw, hotMaxN, h.seen, h.env.pinSeed)
	if err != nil {
		return nil, err
	}
	writesB, err := smallDraw(h.rng, nw, hotMaxN, h.seen, h.env.pinSeed)
	if err != nil {
		return nil, err
	}
	tracedFl, err := startFleet(rec, corpusSteps)
	if err != nil {
		return nil, err
	}
	defer tracedFl.close()
	h.env.tally.attempt(len(h.pool) + 2*len(seq))
	for i, b := range h.pool {
		h.check(i, nil, send(tracedFl, b, h.env.pinSeed, hotDeadline))
	}
	before := tracedFl.counts()
	repliesA := make([]reply, len(seq))
	repliesB := make([]reply, len(seq))
	overhead := interleave(rec, len(seq), func(i int, traced bool) {
		if traced {
			repliesB[i] = send(tracedFl, h.blockOf(seq[i], writesB), h.env.pinSeed, hotDeadline)
		} else {
			repliesA[i] = send(h.fl, h.blockOf(seq[i], writesA), h.env.pinSeed, hotDeadline)
		}
	}, func(i int) bool { return seq[i] >= 0 })
	delta := tracedFl.counts().since(before)
	for i, e := range seq {
		h.check(e, writesA, repliesA[i])
		h.check(e, writesB, repliesB[i])
	}

	lc := newLayerCounts()
	probed := map[int]bool{}
	rec.on.Store(true)
	for _, e := range seq {
		if !probed[e] {
			probed[e] = true
			probeLibrary(rec, h.blockOf(e, writesB), libOpts{core: core.Options{MaxSteps: corpusSteps}, probeSteps: corpusSteps}, lc, h.env.tally)
		}
	}
	rec.on.Store(false)

	spans := groupSpans(rec.finalize())
	m := layerMetrics(spans, lc)
	addServedMetrics(m, spans, delta)
	m["load.gen_lag_ms"] = metric{summarize(lag).tail, "ms"}
	m["trace.overhead_frac"] = metric{overhead, "frac"}
	return m, nil
}

// overBench is the oversized workload: one client in a closed loop
// sending unique blocks of several hundred instructions, each with a
// short deadline. No result is cached (every one is shaped by the
// deadline), so the cache and coalescing do nothing here.
type overBench struct {
	env    *env
	blocks []block
	fl     *fleet
}

const (
	overDeadline    = 200 * time.Millisecond
	overPerSecond   = 8   // blocks generated per measured second: several times what the fleet answers
	overTraceBlocks = 6   // blocks the traced run sends
	overAWCTBlocks  = 24  // leading blocks awct_speedup is computed over
	overProbeSteps  = 100 // step budget of the min-AWCT probe on these blocks
)

func (o *overBench) setup() error {
	o.close()
	n := max(overAWCTBlocks, int(o.env.seconds*overPerSecond))
	var err error
	if o.blocks, err = oversizedDraw(o.env.seed, n, o.env.pinSeed); err != nil {
		return err
	}
	o.fl, err = startFleet(o.env.rec, corpusSteps)
	return err
}

func (o *overBench) close() {
	if o.fl != nil {
		o.fl.close()
		o.fl = nil
	}
}

func (o *overBench) measure() (map[string]metric, map[string]any, error) {
	budget := time.Duration(o.env.seconds * float64(time.Second))
	var lat []time.Duration
	var replies []reply
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		t0 := time.Now()
		replies = append(replies, send(o.fl, o.blocks[i%len(o.blocks)], o.env.pinSeed, overDeadline))
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	o.env.tally.attempt(len(replies))

	// awct_speedup covers a fixed, seed-determined set of blocks, not
	// however many the run got through.
	if len(replies) < overAWCTBlocks {
		return nil, nil, fmt.Errorf("oversized: %d replies in %v, need at least %d for awct_speedup", len(replies), elapsed, overAWCTBlocks)
	}
	awct := make([]float64, overAWCTBlocks)
	tiers := map[string]int{}
	for i, r := range replies {
		res, err := checkServed(o.blocks[i%len(o.blocks)], r)
		if err != nil {
			o.env.tally.fail(err.Error())
			continue
		}
		tiers[res.Tier]++
		if i < overAWCTBlocks {
			awct[i] = res.AWCT
		}
	}
	l := summarize(lat)
	e2e := map[string]metric{
		"p50_ms":           {l.p50, "ms"},
		"tail_ms":          {l.tail, "ms"},
		"throughput_per_s": {float64(len(replies)) / elapsed.Seconds(), "1/s"},
		"awct_speedup":     {carsSpeedup(o.blocks[:overAWCTBlocks], awct, o.env.tally), "ratio"},
	}
	summary := map[string]any{
		"requests":     len(replies),
		"tail_pct":     l.tailPct,
		"tail_samples": l.n,
		"tiers":        tiers,
	}
	return e2e, summary, nil
}

// trace sends the same overTraceBlocks blocks one at a time, each
// untraced to the set-up fleet and traced to a second, fresh fleet, so
// that neither pass can be answered from a cache. It then runs the
// library probe on those blocks under the same deadline the fleet gives
// them.
func (o *overBench) trace(rec *recorder) (map[string]metric, error) {
	blocks := o.blocks[:overTraceBlocks]
	tracedFl, err := startFleet(rec, corpusSteps)
	if err != nil {
		return nil, err
	}
	defer tracedFl.close()
	o.env.tally.attempt(2 * len(blocks))
	replies := make([][2]reply, len(blocks))
	overhead := interleave(rec, len(blocks), func(i int, traced bool) {
		if traced {
			replies[i][1] = send(tracedFl, blocks[i], o.env.pinSeed, overDeadline)
		} else {
			replies[i][0] = send(o.fl, blocks[i], o.env.pinSeed, overDeadline)
		}
	}, func(int) bool { return true })
	counts := tracedFl.counts()
	for i, blk := range blocks {
		for _, r := range replies[i] {
			if _, err := checkServed(blk, r); err != nil {
				o.env.tally.fail(err.Error())
			}
		}
	}

	lc := newLayerCounts()
	opts := libOpts{core: core.Options{MaxSteps: corpusSteps, Timeout: overDeadline}, probeSteps: overProbeSteps}
	rec.on.Store(true)
	for _, blk := range blocks {
		probeLibrary(rec, blk, opts, lc, o.env.tally)
	}
	rec.on.Store(false)

	spans := groupSpans(rec.finalize())
	m := layerMetrics(spans, lc)
	addServedMetrics(m, spans, counts)
	m["load.gen_lag_ms"] = metric{0, "ms"}
	m["trace.overhead_frac"] = metric{overhead, "frac"}
	return m, nil
}
