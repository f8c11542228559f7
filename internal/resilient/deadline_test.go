package resilient

import (
	"strings"
	"testing"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// deadlineSlack bounds how far past the ladder deadline the SG rungs
// may run: the search checks the clock between stages and inside
// propagation, not continuously, and the sleep faults below stall a
// stage for up to 100 ms before its next check.
const deadlineSlack = 150 * time.Millisecond

// checkLadderDeadline asserts the single-deadline rule on an outcome:
// no tier-2 retry starts after the deadline, and the whole ladder ends
// within the deadline plus the fallback rungs plus slack.
func checkLadderDeadline(t *testing.T, out *Outcome, timeout, slack time.Duration) {
	t.Helper()
	var offset, fallback time.Duration
	for _, a := range out.Attempts {
		if a.Tier == TierRetry && offset >= timeout {
			t.Errorf("tier-2 retry started %v into a %v deadline\n%s", offset, timeout, out)
		}
		if a.Tier == TierCARS || a.Tier == TierNaive {
			fallback += a.Elapsed
		}
		offset += a.Elapsed
	}
	if limit := timeout + fallback + slack; out.Elapsed > limit {
		t.Errorf("ladder took %v, want at most %v (deadline %v + fallback %v + slack %v)\n%s",
			out.Elapsed, limit, timeout, fallback, slack, out)
	}
}

// oversizedBlock generates a block of several hundred instructions
// (the generator's limit of six basic blocks of about 70 instructions
// each), larger than the SG search can finish in 200 ms.
func oversizedBlock() *ir.Superblock {
	p := workload.Benchmarks()[0]
	p.MeanBB = 12
	p.TailProb = 0
	p.MeanInstrs = 70
	p.Seed = 12
	return p.GenerateBlock(0, 0)
}

// On a block the search cannot finish in time, the ladder spends its
// deadline on tier 1 and goes straight to CARS: no retry starts after
// the deadline.
func TestLadderHonoursDeadlineOnOversizedBlock(t *testing.T) {
	faultpoint.Reset()
	sb := oversizedBlock()
	m := machine.FourCluster2Lat()
	const timeout = 200 * time.Millisecond
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: workload.PinsFor(sb, m.Clusters, 1), Timeout: timeout}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted schedule invalid: %v", err)
	}
	slack := deadlineSlack
	if raceEnabled {
		slack = 2 * time.Second
	}
	checkLadderDeadline(t, out, timeout, slack)
}

// When tier 1 dies of the deadline, tier 2 is skipped without a trace
// in Attempts or Retries, the outcome is marked as cut by the deadline,
// and CARS answers.
func TestTier1TimeoutSkipsRetries(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	// Every stage stalls 100 ms, so no attempt can finish its five
	// stages within the deadline.
	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindSleep, N: 100})

	sb := ir.Diamond()
	m := machine.TwoCluster1Lat()
	const timeout = 100 * time.Millisecond
	_, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: workload.PinsFor(sb, m.Clusters, 1), Timeout: timeout}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS {
		t.Fatalf("tier = %s, want cars\n%s", out.Tier, out)
	}
	if out.Retries != 0 || !out.DeadlineCut {
		t.Errorf("retries = %d, deadline cut = %v; want 0 retries cut by the deadline\n%s", out.Retries, out.DeadlineCut, out)
	}
	if len(out.Attempts) != 2 || out.Attempts[0].Tier != TierSG || out.Attempts[1].Tier != TierCARS {
		t.Errorf("attempts = %+v, want sg then cars", out.Attempts)
	}
	checkLadderDeadline(t, out, timeout, deadlineSlack)
}

// When tier 1 exhausts its steps with time left, the retries run, but
// each with at most the time left until the deadline: with no decay a
// retry would otherwise get the whole timeout again.
func TestRetriesCappedToTimeLeft(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	// Tier 1 alone is starved to one step (the point fires on its first
	// hit only); the retries search without a step cap and stall 100 ms
	// per stage, so they run into the deadline.
	faultpoint.Arm("core.budget", faultpoint.Fault{Kind: faultpoint.KindStarve, Every: 1000000, N: 1})
	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindSleep, N: 100})

	sb := ir.Diamond()
	m := machine.TwoCluster1Lat()
	const timeout = 250 * time.Millisecond
	opts := Options{Core: core.Options{Pins: workload.PinsFor(sb, m.Clusters, 1), Timeout: timeout, MaxSteps: -1}, Decay: 1}
	_, out, err := Schedule(sb, m, opts)
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS {
		t.Fatalf("tier = %s, want cars\n%s", out.Tier, out)
	}
	if a := out.Attempts[0]; a.Tier != TierSG || !strings.Contains(a.Err, core.ErrExhausted.Error()) {
		t.Fatalf("tier-1 attempt = %+v, want exhaustion", a)
	}
	if out.Retries < 1 {
		t.Fatalf("no retry ran although tier 1 left time\n%s", out)
	}
	offset := out.Attempts[0].Elapsed
	for _, a := range out.Attempts[1:] {
		if a.Tier != TierRetry {
			continue
		}
		if left := timeout - offset; a.Elapsed > left+deadlineSlack {
			t.Errorf("retry ran %v with %v left", a.Elapsed, left)
		}
		offset += a.Elapsed
	}
	checkLadderDeadline(t, out, timeout, deadlineSlack)
}
