package core

import (
	"errors"
	"testing"
	"time"

	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// The enumeration verdict must re-check the wall clock: a deadline that
// expired between checkTime polls (e.g. inside a stage whose
// contradictions mask the budget's deadline signal) is a timeout, not
// an exhausted search.
func TestExhaustVerdictHonorsExpiredDeadline(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.TwoCluster1Lat()

	s, _ := newScheduler(sb, m, Options{}, time.Time{})
	if err := s.exhaustErr(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("no deadline: err = %v, want ErrExhausted", err)
	}

	s, _ = newScheduler(sb, m, Options{}, time.Time{})
	s.deadline = time.Now().Add(-time.Second)
	if err := s.exhaustErr(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired deadline: err = %v, want ErrTimeout", err)
	}
	if err := s.exhaustErr(); errors.Is(err, ErrExhausted) {
		t.Fatal("expired deadline still reported as exhaustion")
	}
}

// Race a 1ms deadline against a large block. With an unlimited step
// budget and a practically-infinite AWCT iteration cap, the only legal
// outcomes are success or ErrTimeout; ErrExhausted would mean the
// expired deadline was misclassified.
func TestDeadlineRaceNeverExhausts(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.FourCluster2Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	reps := 8
	if testing.Short() || raceEnabled {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		for _, par := range []int{1, 4} {
			_, _, err := Schedule(sb, m, Options{
				Pins:         pins,
				Timeout:      time.Millisecond,
				MaxSteps:     -1,
				MaxAWCTIters: 1 << 20,
				Parallelism:  par,
			})
			if errors.Is(err, ErrExhausted) {
				t.Fatalf("rep %d parallelism %d: expired deadline classified as exhaustion: %v", i, par, err)
			}
			if err != nil && !errors.Is(err, ErrTimeout) {
				t.Fatalf("rep %d parallelism %d: unexpected error class: %v", i, par, err)
			}
		}
	}
}

// Satellite: an injected budget starvation must produce byte-identical
// errors and attempt accounting in serial and parallel mode — the
// portfolio's serial-replay contract covers failures, not just
// successes.
func TestInjectedStarvationIdenticalSerialParallel(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()

	sb := largestWorkloadBlock(t)
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)

	run := func(par int) (string, Stats) {
		// Re-arm per run: the starvation point is consumed once at each
		// Schedule entry, so both drivers must see the identical cap.
		faultpoint.Arm("core.budget", faultpoint.Fault{Kind: faultpoint.KindStarve, N: 5000})
		s, stats, err := Schedule(sb, m, Options{Pins: pins, Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: starved run succeeded (schedule AWCT %.3f); raise the test's pressure", par, s.AWCT())
		}
		if !errors.Is(err, ErrExhausted) {
			t.Fatalf("parallelism %d: err = %v, want ErrExhausted from the injected starvation", par, err)
		}
		return err.Error(), stats
	}

	serialErr, serialStats := run(1)
	parErr, parStats := run(4)

	if serialErr != parErr {
		t.Errorf("error strings differ:\nserial:   %s\nparallel: %s", serialErr, parErr)
	}
	if serialStats.AWCTTried != parStats.AWCTTried {
		t.Errorf("AWCTTried: %d serial vs %d parallel", serialStats.AWCTTried, parStats.AWCTTried)
	}
	if len(serialStats.Attempts) != len(parStats.Attempts) {
		t.Fatalf("attempt counts differ: %d serial vs %d parallel\nserial: %+v\nparallel: %+v",
			len(serialStats.Attempts), len(parStats.Attempts), serialStats.Attempts, parStats.Attempts)
	}
	for i := range serialStats.Attempts {
		a, b := serialStats.Attempts[i], parStats.Attempts[i]
		if a.AWCTIndex != b.AWCTIndex || a.Variant != b.Variant || a.Outcome != b.Outcome {
			t.Errorf("attempt %d differs: serial %+v vs parallel %+v", i, a, b)
		}
	}
}

// A search whose step budget dies in the min-AWCT probe, before any
// attempt launches, still reports the steps it spent.
func TestStepsSpentReportedWhenProbeExhausts(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.TwoCluster1Lat()
	_, stats, err := Schedule(sb, m, Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 10})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if stats.AttemptsLaunched != 0 {
		t.Fatalf("%d attempts launched; the budget must die in the min-AWCT probe", stats.AttemptsLaunched)
	}
	if stats.StepsSpent <= 0 {
		t.Fatalf("StepsSpent = %d, want > 0", stats.StepsSpent)
	}
}

// strideBlock is a straight-line block of n integer instructions where
// instruction i consumes instruction i−8, ending in one exit. Its
// scheduling graph has nearly every pair as an edge, so construction
// is quadratic.
func strideBlock(n int) *ir.Superblock {
	b := ir.NewBuilder("stride")
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Instr("", ir.Int, 1)
		if i >= 8 {
			b.Data(ids[i-8], ids[i])
		}
	}
	x := b.Exit("x", 1, 1.0)
	for _, u := range ids[n-8:] {
		b.Data(u, x)
	}
	return b.MustFinish()
}

// A deadline interrupts scheduling-graph construction: on a block whose
// graph alone takes seconds to build, a 50 ms timeout ends the call
// promptly with ErrTimeout.
func TestTimeoutInterruptsGraphConstruction(t *testing.T) {
	sb := strideBlock(1600)
	m := machine.FourCluster2Lat()
	start := time.Now()
	_, _, err := Schedule(sb, m, Options{Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if limit := time.Second; elapsed > limit && !raceEnabled {
		t.Fatalf("ErrTimeout after %v, want under %v", elapsed, limit)
	}
}
