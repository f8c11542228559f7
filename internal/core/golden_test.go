package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// The golden digests pin everything core.Schedule reports on a fixed
// corpus: the WriteText bytes of each schedule, StepsSpent, every
// attempt's Steps and Outcome, MinAWCT and the error text. The step
// budget is small enough that some blocks exhaust it, so the digest
// also pins where the budget boundary falls. A change to either digest
// is a change to the search, not a refactoring.
const (
	// goldenCorpusDigest covers the first goldenPerApp blocks of each
	// application on every evaluation machine.
	goldenCorpusDigest = "b013dc8dda6ebeb43179222dd951fdb5120ae0d1e155df35afed10e84bccaa9e"
	// goldenSubsetDigest covers the first goldenRacePerApp blocks; it is
	// the digest checked under the race detector.
	goldenSubsetDigest = "d5235eddc96cb9a042b4e6fd67fe18f4c5433351b313308df282fc7603d5427c"
)

const (
	goldenPerApp     = 8
	goldenRacePerApp = 2
	goldenMaxSteps   = 2000
)

type goldenCase struct {
	sb   *ir.Superblock
	m    *machine.Config
	pins sched.Pins
}

// goldenCases is the first perApp blocks of each of the paper's 14
// applications on the three evaluation machines, with the pins of pin
// seed 1.
func goldenCases(perApp int) []goldenCase {
	var out []goldenCase
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < perApp; idx++ {
			sb := p.GenerateBlock(idx, 0)
			for _, m := range machine.EvaluationConfigs() {
				out = append(out, goldenCase{sb, m, workload.PinsFor(sb, m.Clusters, 1)})
			}
		}
	}
	return out
}

// goldenDigest schedules every case serially and hashes its results.
func goldenDigest(t *testing.T, cases []goldenCase) string {
	t.Helper()
	h := sha256.New()
	failed := 0
	for _, c := range cases {
		s, st, err := Schedule(c.sb, c.m, Options{Pins: c.pins, MaxSteps: goldenMaxSteps})
		fmt.Fprintf(h, "== %s@%s steps %d minawct %v\n", c.sb.Name, c.m.Key(), st.StepsSpent, st.MinAWCT)
		for _, a := range st.Attempts {
			fmt.Fprintf(h, "attempt %d/%d steps %d %s\n", a.AWCTIndex, a.Variant, a.Steps, a.Outcome)
		}
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			failed++
			continue
		}
		if werr := s.WriteText(h); werr != nil {
			t.Fatalf("%s@%s: write: %v", c.sb.Name, c.m.Key(), werr)
		}
	}
	t.Logf("%d blocks, %d without a schedule", len(cases), failed)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCorpusDigest pins core.Schedule's results on the golden
// corpus. The race detector slows the sweep down too much, so under it
// only the subset digest runs.
func TestGoldenCorpusDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("full corpus digest is checked without -race; see TestGoldenSubsetDigest")
	}
	cases := goldenCases(goldenPerApp)
	if got := goldenDigest(t, cases); got != goldenCorpusDigest {
		t.Fatalf("core.Schedule results changed over %d blocks: digest %s, want %s", len(cases), got, goldenCorpusDigest)
	}
}

// TestGoldenSubsetDigest pins the first goldenRacePerApp blocks per
// application; it is the golden check that runs under -race.
func TestGoldenSubsetDigest(t *testing.T) {
	cases := goldenCases(goldenRacePerApp)
	if got := goldenDigest(t, cases); got != goldenSubsetDigest {
		t.Fatalf("core.Schedule results changed over %d blocks: digest %s, want %s", len(cases), got, goldenSubsetDigest)
	}
}
