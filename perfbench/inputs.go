package main

import (
	"fmt"
	"math/rand"
	"sort"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// block is one scheduling input: a superblock on a machine with its
// live-in/live-out pins. Served blocks also carry the .sb text the
// client sends; their sb is parsed back from that text, so every check
// runs on exactly the block the fleet received.
type block struct {
	sb   *ir.Superblock
	app  string
	idx  int // block index within its application
	m    *machine.Config
	pins sched.Pins
	text string // .sb source; "" for library-only blocks
}

func (b block) key() string { return b.m.Key() + "/" + b.sb.Name }

// corpusBlocks is the paper's corpus: the first perApp blocks of each
// of the fourteen applications on each evaluation machine, with the
// live-in/live-out pins of pin seed 1 (the harness default in
// internal/bench and cmd/vcsched). The corpus and its pins are fixed,
// as the paper's are: which blocks exhaust the step budget depends on
// the pins, and those blocks dominate a sweep's time. The workload
// seed orders the blocks within each size.
//
// Blocks below largeBlock instructions come first, smallest first, and
// the large ones follow, largest first. Every worker is then busy with
// blocks of similar size at any time, so how much the workers slow
// each other down does not depend on when a large block happens to
// start; and the large blocks finish together instead of one of them
// running alone at the end.
func corpusBlocks(perApp int, seed int64) []block {
	var out []block
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < perApp; idx++ {
			for _, m := range machine.EvaluationConfigs() {
				sb := p.GenerateBlock(idx, 0)
				out = append(out, block{sb: sb, app: p.Name, idx: idx, m: m, pins: workload.PinsFor(sb, m.Clusters, 1)})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].sb.N(), out[j].sb.N()
		if (a < largeBlock) != (b < largeBlock) {
			return a < largeBlock
		}
		if a < largeBlock {
			return a < b
		}
		return a > b
	})
	return out
}

// largeBlock splits the corpus sweep into its small and large blocks.
const largeBlock = 30

// servedBlock serializes a generated block and parses it back.
func servedBlock(sb *ir.Superblock, app string, idx int, m *machine.Config, pinSeed int64) (block, error) {
	text := sb.String()
	parsed, err := ir.Parse(text)
	if err != nil {
		return block{}, fmt.Errorf("re-reading generated block %s: %w", sb.Name, err)
	}
	return block{sb: parsed, app: app, idx: idx, m: m, pins: workload.PinsFor(parsed, m.Clusters, pinSeed), text: text}, nil
}

// smallDraw draws distinct corpus blocks (any application, block index
// and evaluation machine) of at most maxN instructions. seen is shared
// between draws so that a pool and its fresh writes never overlap.
func smallDraw(rng *rand.Rand, n, maxN int, seen map[string]bool, pinSeed int64) ([]block, error) {
	apps := workload.Benchmarks()
	machines := machine.EvaluationConfigs()
	var out []block
	for len(out) < n {
		p := apps[rng.Intn(len(apps))]
		idx := rng.Intn(p.Blocks)
		m := machines[rng.Intn(len(machines))]
		id := fmt.Sprintf("%s/%s/%d", m.Key(), p.Name, idx)
		if seen[id] {
			continue
		}
		seen[id] = true
		sb := p.GenerateBlock(idx, 0)
		if sb.N() > maxN {
			continue
		}
		b, err := servedBlock(sb, p.Name, idx, m, pinSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// oversizedDraw builds n unique blocks of several hundred instructions
// from the corpus generator: every application profile in turn, scaled
// to the generator's limit of six basic blocks, with a mean basic-block
// size stratified over [50, 90) so that every run draws the same mix
// of sizes, and a seeded generator seed for the content.
func oversizedDraw(seed int64, n int, pinSeed int64) ([]block, error) {
	apps := workload.Benchmarks()
	machines := machine.EvaluationConfigs()
	rng := rand.New(rand.NewSource(seed))
	const strata = 8
	out := make([]block, 0, n)
	for i := 0; i < n; i++ {
		p := apps[i%len(apps)]
		p.MeanBB = 12
		p.TailProb = 0
		p.MeanInstrs = 50 + 40*(float64(i%strata)+rng.Float64())/strata
		p.Seed = rng.Int63()
		b, err := servedBlock(p.GenerateBlock(i, 0), p.Name, i, machines[i%len(machines)], pinSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
