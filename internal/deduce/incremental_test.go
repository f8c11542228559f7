package deduce

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// dumpState is DumpText without the budget line, which every
// Propagate call moves.
func dumpState(st *State) string {
	s := st.DumpText()
	return s[:strings.LastIndex(s, "budget used ")]
}

// checkFullFixpoint marks every item dirty and propagates once more: a
// state the incremental passes left at a fixpoint must also be a
// fixpoint of a full scan, so the extra Propagate spends exactly one
// step and changes nothing.
func checkFullFixpoint(t *testing.T, st *State, label string) {
	t.Helper()
	before := dumpState(st)
	used := st.budget.Used()
	st.markAllDirty()
	if err := st.Propagate(); err != nil {
		t.Fatalf("%s: full rescan of a fixpoint failed: %v", label, err)
	}
	if got := st.budget.Used() - used; got != 1 {
		t.Fatalf("%s: full rescan of a fixpoint spent %d steps, want 1", label, got)
	}
	if after := dumpState(st); after != before {
		t.Fatalf("%s: full rescan changed the state\nbefore:\n%s\nafter:\n%s", label, before, after)
	}
}

// randomDecision returns a random decision for the state, or nil when
// the state offers none of the drawn kind.
func randomDecision(rng *rand.Rand, st *State) (string, func(*State) error) {
	switch rng.Intn(4) {
	case 0, 1:
		var free []int
		for n := 0; n < st.NumNodes(); n++ {
			if !st.Pinned(n) {
				free = append(free, n)
			}
		}
		if len(free) == 0 {
			return "", nil
		}
		node := free[rng.Intn(len(free))]
		cycle := st.Est(node) + rng.Intn(st.Slack(node)+1)
		return fmt.Sprintf("FixCycle(%d,%d)", node, cycle), func(s *State) error { return s.FixCycle(node, cycle) }
	default:
		open := st.OpenPairs()
		if len(open) == 0 {
			return "", nil
		}
		p := st.PairAt(open[rng.Intn(len(open))])
		if len(p.Combs) == 0 {
			return "", nil
		}
		comb := p.Combs[rng.Intn(len(p.Combs))]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("ChooseComb(%d,%d,%d)", p.U, p.V, comb), func(s *State) error { return s.ChooseComb(p.U, p.V, comb) }
		}
		return fmt.Sprintf("DiscardComb(%d,%d,%d)", p.U, p.V, comb), func(s *State) error { return s.DiscardComb(p.U, p.V, comb) }
	}
}

// TestIncrementalPassesReachFullFixpoint drives seeded decision
// sequences (probed first, then committed, as the core driver does,
// with Shave rounds and clones mixed in) over corpus blocks, and checks
// after every successful Propagate that a full rescan finds nothing
// more to do.
func TestIncrementalPassesReachFullFixpoint(t *testing.T) {
	perApp, steps := 2, 30
	if testing.Short() {
		perApp, steps = 1, 15
	}
	checked := 0
	for ai, p := range workload.Benchmarks() {
		for idx := 0; idx < perApp; idx++ {
			sb := p.GenerateBlock(idx, 0)
			for mi, m := range machine.EvaluationConfigs() {
				label := fmt.Sprintf("%s@%s", sb.Name, m.Key())
				est := sb.EStarts()
				deadlines := make(map[int]int, len(sb.Exits()))
				for _, x := range sb.Exits() {
					deadlines[x] = est[x] + 1 + (ai+idx+mi)%3
				}
				st, err := NewState(sb, m, sg.Build(sb, m), deadlines, Options{
					Pins: workload.PinsFor(sb, m.Clusters, 1), Budget: NewBudget(0), PinExits: true,
				})
				if err != nil {
					continue
				}
				checkFullFixpoint(t, st, label+" NewState")
				checked++
				rng := rand.New(rand.NewSource(int64(1000*ai + 10*idx + mi)))
				for step := 0; step < steps; step++ {
					switch rng.Intn(6) {
					case 0:
						if err := st.Shave(1); err != nil {
							if !IsContradiction(err) {
								t.Fatalf("%s: Shave: %v", label, err)
							}
							step = steps // a contradiction spends the live state
							continue
						}
						checkFullFixpoint(t, st, label+" Shave")
					case 1:
						st = st.Clone()
						checkFullFixpoint(t, st, label+" Clone")
					default:
						name, dec := randomDecision(rng, st)
						if dec == nil {
							continue
						}
						perr := st.Probe(func(s *State) error {
							if err := dec(s); err != nil {
								return err
							}
							checkFullFixpoint(t, s, label+" probe "+name)
							return nil
						})
						if perr != nil {
							if !IsContradiction(perr) {
								t.Fatalf("%s: probe %s: %v", label, name, perr)
							}
							continue
						}
						if err := dec(st); err != nil {
							t.Fatalf("%s: %s succeeded as a probe but failed on commit: %v", label, name, err)
						}
						checkFullFixpoint(t, st, label+" "+name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no corpus block produced a feasible state")
	}
}

// packIntervalsTripleLoop is the window-packing sweep as it was before
// the sorted-ends rewrite: every window's demand recounted over every
// interval. It is the reference packIntervals must match exactly.
func packIntervalsTripleLoop(st *State, ivs []interval, cap, dur int) (bool, error) {
	var los, his []int
	for _, iv := range ivs {
		los = append(los, iv.lo)
		his = append(his, iv.hi)
	}
	slices.Sort(los)
	slices.Sort(his)
	los = dedupInts(los)
	his = dedupInts(his)
	changed := false
	for _, a := range los {
		for _, b := range his {
			if b < a {
				continue
			}
			demand := 0
			for _, iv := range ivs {
				if iv.lo >= a && iv.hi <= b {
					demand += dur
				}
			}
			room := cap * (b - a + 1)
			if demand > room {
				return changed, contraf("window [%d,%d]: demand %d exceeds capacity %d", a, b, demand, room)
			}
			if demand != room {
				continue
			}
			for i := range ivs {
				iv := &ivs[i]
				if iv.node < 0 || (iv.lo >= a && iv.hi <= b) || iv.hi < a || iv.lo > b {
					continue
				}
				if iv.lo >= a {
					newEst := b + 1
					if newEst > st.est[iv.node] {
						st.setEst(iv.node, newEst)
						iv.lo = newEst
						changed = true
						if st.est[iv.node] > st.lst[iv.node] {
							return changed, contraf("packing pushed node %d past its deadline", iv.node)
						}
					}
				} else if iv.hi <= b {
					newLst := a - 1 - (dur - 1)
					if newLst < st.lst[iv.node] {
						st.setLst(iv.node, newLst)
						iv.hi = a - 1
						changed = true
						if st.est[iv.node] > st.lst[iv.node] {
							return changed, contraf("packing pulled node %d before its release", iv.node)
						}
					}
				}
			}
		}
	}
	return changed, nil
}

// packingState is a bare state holding only what packIntervals reads
// and writes: node bounds, classes and the incremental marks.
func packingState(est, lst []int) *State {
	n := len(est)
	return &State{
		nOrig:     n,
		class:     make([]ir.Class, n),
		est:       append([]int(nil), est...),
		lst:       append([]int(nil), lst...),
		nodeDirty: make([]uint64, dirtyWords(n)),
		ar:        NewArena(),
	}
}

// TestPackIntervalsMatchesTripleLoop runs packIntervals and the
// reference triple loop on random interval sets, tight enough that
// many windows saturate or overflow, and requires the same result,
// error, bounds and final intervals.
func TestPackIntervalsMatchesTripleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	saturated, failed := 0, 0
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rng.Intn(9)
		cap, dur := 1+rng.Intn(3), 1+rng.Intn(2)
		span := 2 + rng.Intn(8)
		est, lst := make([]int, n), make([]int, n)
		var ivs []interval
		for i := 0; i < n; i++ {
			est[i] = rng.Intn(span)
			lst[i] = est[i] + rng.Intn(4) - 1 // occasionally an empty window
			ivs = append(ivs, interval{node: i, lo: est[i], hi: lst[i] + dur - 1})
		}
		for k := rng.Intn(3); k > 0; k-- { // PLC reservations
			lo := rng.Intn(span)
			ivs = append(ivs, interval{node: -1, lo: lo, hi: lo + rng.Intn(3)})
		}
		refSt, gotSt := packingState(est, lst), packingState(est, lst)
		refIvs, gotIvs := slices.Clone(ivs), slices.Clone(ivs)
		refCh, refErr := packIntervalsTripleLoop(refSt, refIvs, cap, dur)
		gotCh, gotErr := gotSt.packIntervals(gotIvs, cap, dur)
		label := fmt.Sprintf("trial %d (cap %d dur %d ivs %v)", trial, cap, dur, ivs)
		if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
			t.Fatalf("%s: error %v, want %v", label, gotErr, refErr)
		}
		if refCh != gotCh {
			t.Fatalf("%s: changed %v, want %v", label, gotCh, refCh)
		}
		if !slices.Equal(refSt.est, gotSt.est) || !slices.Equal(refSt.lst, gotSt.lst) || !slices.Equal(refIvs, gotIvs) {
			t.Fatalf("%s: est %v lst %v ivs %v, want est %v lst %v ivs %v",
				label, gotSt.est, gotSt.lst, gotIvs, refSt.est, refSt.lst, refIvs)
		}
		if refErr != nil {
			failed++
		} else if refCh {
			saturated++
		}
	}
	if saturated < 100 || failed < 100 {
		t.Fatalf("random sets too easy: %d tightened, %d overflowed", saturated, failed)
	}
}

// TestWindowPackingVisitsCopyMarkedInPass starts D2 with only Int
// marked, as in a pass after one whose Int visit moved bounds and whose
// Copy visit changed nothing. The Int visit pulls the latest start of a
// PLC consumer, which narrows the PLC's bus reservation and marks Copy;
// the Copy visit later in the same pass must then see both copies and
// push one of them, exactly as a pass with every class marked does.
func TestWindowPackingVisitsCopyMarkedInPass(t *testing.T) {
	build := func() *State {
		// 0,1: Int fixed at cycle 3, saturating both Int units there.
		// 2: Int, consumer of a PLC over two live-ins, window [0,3].
		// 3,4: copies, windows [0,1] and [1,3].
		st := packingState([]int{3, 3, 0, 0, 1}, []int{3, 3, 3, 1, 3})
		st.nOrig = 3
		st.M = machine.TwoCluster1Lat()
		st.class[3], st.class[4] = ir.Copy, ir.Copy
		st.commIdx = []int32{-1, -1, -1, -1, -1}
		st.plcs = []plcRec{{Consumer: 2, Alts: [2]int{-1, -2}}}
		return st
	}
	full := build()
	full.classDirty = allClasses
	if _, err := full.ruleWindowPacking(); err != nil {
		t.Fatalf("all classes marked: %v", err)
	}
	if full.lst[2] != 2 || full.est[4] != 2 {
		t.Fatalf("all classes marked: consumer lst %d, second copy est %d; want 2 and 2", full.lst[2], full.est[4])
	}
	inc := build()
	inc.classDirty = 1 << ir.Int
	if _, err := inc.ruleWindowPacking(); err != nil {
		t.Fatalf("Int marked: %v", err)
	}
	if !slices.Equal(inc.est, full.est) || !slices.Equal(inc.lst, full.lst) {
		t.Fatalf("Int marked: est %v lst %v, want est %v lst %v as with every class marked",
			inc.est, inc.lst, full.est, full.lst)
	}
}
