package cars

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

func TestFixturesValid(t *testing.T) {
	blocks := []*ir.Superblock{
		ir.PaperFigure1(), ir.Diamond(), ir.Straight(8), ir.Wide(6),
	}
	machines := machine.EvaluationConfigs()
	// The section-5 machine has no mem/fp units, so only the all-int
	// figure-1 block runs on it.
	type pair struct {
		sb *ir.Superblock
		m  *machine.Config
	}
	var pairs []pair
	for _, sb := range blocks {
		for _, m := range machines {
			pairs = append(pairs, pair{sb, m})
		}
	}
	pairs = append(pairs, pair{ir.PaperFigure1(), machine.PaperExampleSection5()})
	for _, pr := range pairs {
		{
			sb, m := pr.sb, pr.m
			s, err := Schedule(sb, m, sched.Pins{})
			if err != nil {
				t.Errorf("%s on %s: %v", sb.Name, m.Name, err)
				continue
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s on %s: invalid: %v\n%s", sb.Name, m.Name, err, s.Format())
			}
			if s.AWCT() < sb.CriticalAWCT()-1e-9 {
				t.Errorf("%s on %s: AWCT %g below critical %g", sb.Name, m.Name, s.AWCT(), sb.CriticalAWCT())
			}
		}
	}
}

func TestStraightChainOptimal(t *testing.T) {
	sb := ir.Straight(6)
	s, err := Schedule(sb, machine.TwoCluster1Lat(), sched.Pins{})
	if err != nil {
		t.Fatal(err)
	}
	if s.AWCT() != sb.CriticalAWCT() {
		t.Errorf("AWCT = %g, want critical %g", s.AWCT(), sb.CriticalAWCT())
	}
	if s.NumComms() != 0 {
		t.Errorf("chain produced %d comms", s.NumComms())
	}
}

func TestNoUnitsError(t *testing.T) {
	var fu [ir.NumClasses]int
	fu[ir.Int] = 1 // no branch units
	m := &machine.Config{Name: "broken", Clusters: 1, FU: fu}
	if _, err := Schedule(ir.Diamond(), m, sched.Pins{}); err == nil {
		t.Fatal("machine without branch units accepted")
	}
}

func TestLiveInAndOut(t *testing.T) {
	b := ir.NewBuilder("live")
	c0 := b.Instr("c0", ir.Int, 1)
	c1 := b.Instr("c1", ir.Int, 1)
	j := b.Instr("j", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(c0, j).Data(c1, j).Data(j, x)
	b.LiveIn("u", c0)
	b.LiveIn("v", c1)
	b.LiveOut(j)
	sb := b.MustFinish()
	for _, pins := range []sched.Pins{
		{LiveIn: []int{0, 1}, LiveOut: []int{0}},
		{LiveIn: []int{1, 1}, LiveOut: []int{0}},
		{LiveIn: []int{0, 0}, LiveOut: []int{1}},
	} {
		s, err := Schedule(sb, machine.TwoCluster1Lat(), pins)
		if err != nil {
			t.Fatalf("pins %+v: %v", pins, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("pins %+v: invalid: %v\n%s", pins, err, s.Format())
		}
	}
}

// TestRandomBlocksValid: CARS must produce validator-clean schedules on
// random superblocks across all evaluation machines.
func TestRandomBlocksValid(t *testing.T) {
	machines := machine.EvaluationConfigs()
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sb := randomBlock(rng)
		for _, m := range machines {
			pins := randomPins(rng, sb, m.Clusters)
			s, err := Schedule(sb, m, pins)
			if err != nil {
				t.Logf("seed %d on %s: %v", seed, m.Name, err)
				return false
			}
			if err := s.Validate(); err != nil {
				t.Logf("seed %d on %s: %v\n%s", seed, m.Name, err, s.Format())
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func randomBlock(rng *rand.Rand) *ir.Superblock {
	b := ir.NewBuilder("rand")
	n := 4 + rng.Intn(12)
	classes := []ir.Class{ir.Int, ir.Int, ir.Mem, ir.FP}
	lat := map[ir.Class]int{ir.Int: 1, ir.Mem: 2, ir.FP: 3}
	var ids []int
	for i := 0; i < n; i++ {
		cl := classes[rng.Intn(len(classes))]
		ids = append(ids, b.Instr("", cl, lat[cl]))
	}
	x := b.Exit("x", 2, 1.0)
	for i := 1; i < len(ids); i++ {
		for tries := 0; tries < 2; tries++ {
			if rng.Intn(2) == 0 {
				from := ids[rng.Intn(i)]
				b.Data(from, ids[i])
				break
			}
		}
	}
	for _, u := range ids {
		if rng.Intn(3) == 0 {
			b.Data(u, x)
		}
	}
	if rng.Intn(2) == 0 && len(ids) > 1 {
		b.LiveIn("li", ids[0], ids[1])
	}
	if rng.Intn(2) == 0 {
		b.LiveOut(ids[len(ids)-1])
	}
	sb, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return sb
}

func randomPins(rng *rand.Rand, sb *ir.Superblock, clusters int) sched.Pins {
	var p sched.Pins
	for range sb.LiveIns {
		p.LiveIn = append(p.LiveIn, rng.Intn(clusters))
	}
	for range sb.LiveOuts {
		p.LiveOut = append(p.LiveOut, rng.Intn(clusters))
	}
	return p
}

func TestScheduleFixedRejectsBadCluster(t *testing.T) {
	sb := ir.Diamond()
	m := machine.TwoCluster1Lat()
	assign := make([]int, sb.N())
	assign[sb.N()-1] = m.Clusters
	if _, err := ScheduleFixed(sb, m, sched.Pins{}, assign); err == nil {
		t.Fatal("assignment to a cluster the machine lacks accepted")
	}
}
