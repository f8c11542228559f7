package cars

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// goldenDigest is the SHA-256 over the WriteText bytes of every
// schedule TestGoldenDigest produces. CARS is the denominator of every AWCT
// speed-up the repository reports, so its output is pinned byte for
// byte: a change to this digest is a change to the baseline, not a
// refactoring.
const goldenDigest = "1178126526363a161941de62c57bf551e5fc825aacbdad5257d4996d458722c3"

type goldenCase struct {
	sb   *ir.Superblock
	m    *machine.Config
	pins sched.Pins
}

// goldenCorpus is the first 8 blocks of each of the paper's 14
// applications on the three evaluation machines, with the pins of pin
// seed 1.
func goldenCorpus() []goldenCase {
	var out []goldenCase
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < 8; idx++ {
			sb := p.GenerateBlock(idx, 0)
			for _, m := range machine.EvaluationConfigs() {
				out = append(out, goldenCase{sb, m, workload.PinsFor(sb, m.Clusters, 1)})
			}
		}
	}
	return out
}

// largeBlocks draws 12 generated blocks of 300–550 instructions: every
// application profile in turn, at the generator's limit of six basic
// blocks with 50–90 instructions each, machines in rotation.
func largeBlocks() []goldenCase {
	apps := workload.Benchmarks()
	machines := machine.EvaluationConfigs()
	rng := rand.New(rand.NewSource(12))
	var out []goldenCase
	for i := 0; len(out) < 12; i++ {
		p := apps[i%len(apps)]
		p.MeanBB = 12
		p.TailProb = 0
		p.MeanInstrs = 50 + 40*rng.Float64()
		p.Seed = rng.Int63()
		sb := p.GenerateBlock(i, 0)
		if sb.N() < 300 || sb.N() > 550 {
			continue
		}
		m := machines[len(out)%len(machines)]
		out = append(out, goldenCase{sb, m, workload.PinsFor(sb, m.Clusters, 1)})
	}
	return out
}

func digestSchedule(h hash.Hash, label string, s *sched.Schedule, err error) {
	fmt.Fprintf(h, "== %s\n", label)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	if werr := s.WriteText(h); werr != nil {
		fmt.Fprintf(h, "write: %v\n", werr)
	}
}

// TestGoldenDigest pins the output of Schedule (and of ScheduleFixed
// under a round-robin assignment) on the corpus and on large generated
// blocks.
func TestGoldenDigest(t *testing.T) {
	h := sha256.New()
	cases := append(goldenCorpus(), largeBlocks()...)
	for _, c := range cases {
		label := c.sb.Name + "@" + c.m.Key()
		s, err := Schedule(c.sb, c.m, c.pins)
		digestSchedule(h, label, s, err)
		if err == nil {
			if verr := s.Validate(); verr != nil {
				t.Errorf("%s: invalid schedule: %v", label, verr)
			}
		}
		assign := make([]int, c.sb.N())
		for u := range assign {
			assign[u] = u % c.m.Clusters
		}
		s, err = ScheduleFixed(c.sb, c.m, c.pins, assign)
		digestSchedule(h, label+"/fixed", s, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("CARS output changed over %d blocks: digest %s, want %s", len(cases), got, goldenDigest)
	}
}

// BenchmarkCARSLarge schedules the 12 large generated blocks of the
// golden set, one block per iteration in rotation.
func BenchmarkCARSLarge(b *testing.B) {
	cases := largeBlocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		if _, err := Schedule(c.sb, c.m, c.pins); err != nil {
			b.Fatal(err)
		}
	}
}
