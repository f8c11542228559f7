// Package cars implements the baseline the paper compares against:
// CARS (Kailas, Ebcioglu, Agrawala, "CARS: A New Code Generation
// Framework for Clustered ILP Processors", HPCA 2001) — a single-phase
// list scheduler that assigns each instruction to a cluster at the
// moment it is scheduled.
//
// The scheduler is cycle-driven: at each cycle the ready instructions
// are visited in priority order (longest weighted path to the exits
// first); for each, every cluster is evaluated for the earliest cycle
// the instruction could issue there (functional unit availability,
// operand arrival — including a bus slot for a new copy when an operand
// lives in another cluster), and the cluster that allows issuing *now*
// with the fewest new communications and the lightest load wins.
// Communications are committed on the fly, one broadcast per value, the
// same machine model the virtual-cluster scheduler uses.
package cars

import (
	"fmt"
	"sort"

	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

// Schedule list-schedules the superblock with integrated cluster
// assignment. It always succeeds on valid inputs (given enough cycles);
// an error indicates an impossible machine (e.g. a class with no units)
// or an internal inconsistency.
func Schedule(sb *ir.Superblock, m *machine.Config, pins sched.Pins) (*sched.Schedule, error) {
	return schedule(sb, m, pins, nil)
}

// ScheduleFixed list-schedules with a precomputed cluster assignment
// (assign[u] = cluster of instruction u): the phase-2 engine of the
// two-phase baseline family. Scheduling freedom is temporal only.
func ScheduleFixed(sb *ir.Superblock, m *machine.Config, pins sched.Pins, assign []int) (*sched.Schedule, error) {
	if len(assign) != sb.N() {
		return nil, fmt.Errorf("cars: assignment covers %d of %d instructions", len(assign), sb.N())
	}
	for u, k := range assign {
		if k < 0 || k >= m.Clusters {
			return nil, fmt.Errorf("cars: instruction %d assigned to cluster %d of %d", u, k, m.Clusters)
		}
	}
	return schedule(sb, m, pins, assign)
}

func schedule(sb *ir.Superblock, m *machine.Config, pins sched.Pins, fixed []int) (*sched.Schedule, error) {
	// Fault point for exercising the degradation ladder's last rung:
	// KindPanic panics inside Fire; any other armed kind becomes a
	// scheduling error.
	if f, ok := faultpoint.Fire("cars.schedule"); ok {
		return nil, fmt.Errorf("cars: injected fault (%v)", f.Kind)
	}
	for cl := 0; cl < ir.NumClasses; cl++ {
		class := ir.Class(cl)
		if class == ir.Copy {
			continue
		}
		needed := false
		for _, in := range sb.Instrs {
			if in.Class == class {
				needed = true
				break
			}
		}
		if needed && m.TotalFU(class) == 0 {
			return nil, fmt.Errorf("cars: machine %q has no %s units", m.Name, class)
		}
	}
	s := newState(sb, m, pins, fixed)
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.out, nil
}

// state is the scheduler's working set, kept in flat slices: the
// cycle-indexed resource tables are bounded by the horizon, values are
// indexed densely (instruction ids, then live-ins), and the ready list
// is maintained incrementally from predecessor counts.
type state struct {
	sb    *ir.Superblock
	m     *machine.Config
	out   *sched.Schedule
	prio  []float64
	fixed []int // optional precomputed cluster per instruction

	horizon   int
	occ       int     // bus occupancy per communication
	finalExit int     // id of the region-ending exit, or −1
	fuCap     []int   // [cluster*NumClasses+class] → units
	fuBusy    []int   // [(cycle*clusters+cluster)*NumClasses+class] → units used
	busBusy   []int   // cycle → buses used by committed communications
	commOf    []int   // value index (see valueIndex) → committed comm cycle, or −1
	liveIns   [][]int // instruction → live-in indices it consumes
	liveHome  [][]int // live-out producer → pinned cluster(s)
	load      []int   // cluster → instructions placed there

	predsLeft []int        // instruction → in-edges from unscheduled producers
	rank      []int        // instruction → position in (priority desc, id asc) order
	ready     []int        // unscheduled instructions with every producer scheduled, by rank
	pending   []sched.Comm // tentative communications of the current feasibleAt

	maxDone   int // latest completion cycle of any scheduled instruction
	maxComm   int // latest committed communication cycle, or −1
	scheduled int
}

func newState(sb *ir.Superblock, m *machine.Config, pins sched.Pins, fixed []int) *state {
	n := sb.N()
	s := &state{
		sb:        sb,
		m:         m,
		out:       sched.New(sb, m, pins),
		prio:      priorities(sb),
		fixed:     fixed,
		occ:       m.BusOccupancy(),
		finalExit: -1,
		maxComm:   -1,
	}
	if exits := sb.Exits(); len(exits) > 0 {
		s.finalExit = exits[len(exits)-1]
	}
	h := 4
	for _, in := range sb.Instrs {
		h += in.Latency + 2*m.BusLatency
	}
	s.horizon = h
	s.fuCap = make([]int, m.Clusters*ir.NumClasses)
	for k := 0; k < m.Clusters; k++ {
		for cl := 0; cl < ir.NumClasses; cl++ {
			s.fuCap[k*ir.NumClasses+cl] = m.ClusterFU(k, ir.Class(cl))
		}
	}
	s.fuBusy = make([]int, (h+1)*m.Clusters*ir.NumClasses)
	// Issue cycles stay within the horizon and operands are ready by
	// horizon + latency ≤ 2·horizon; a live-out copy may search one more
	// horizon past its producer's completion.
	s.busBusy = make([]int, 3*h+s.occ)
	s.commOf = make([]int, n+len(sb.LiveIns))
	for i := range s.commOf {
		s.commOf[i] = -1
	}
	s.liveIns = make([][]int, n)
	for li, l := range sb.LiveIns {
		for _, c := range l.Consumers {
			s.liveIns[c] = append(s.liveIns[c], li)
		}
	}
	s.liveHome = make([][]int, n)
	for oi, u := range sb.LiveOuts {
		s.liveHome[u] = append(s.liveHome[u], pins.LiveOut[oi])
	}
	s.load = make([]int, m.Clusters)

	byPrio := make([]int, n)
	for u := range byPrio {
		byPrio[u] = u
	}
	sort.Slice(byPrio, func(i, j int) bool {
		a, b := byPrio[i], byPrio[j]
		return s.prio[a] > s.prio[b] || (s.prio[a] == s.prio[b] && a < b)
	})
	s.rank = make([]int, n)
	for r, u := range byPrio {
		s.rank[u] = r
	}
	s.predsLeft = make([]int, n)
	for u := range s.predsLeft {
		s.predsLeft[u] = len(sb.InEdges(u))
	}
	for _, u := range byPrio {
		if s.predsLeft[u] == 0 {
			s.ready = append(s.ready, u)
		}
	}
	return s
}

// valueIndex maps a value (instruction id, or −(li+1) for live-in li)
// to its slot in commOf.
func (s *state) valueIndex(value int) int {
	if value >= 0 {
		return value
	}
	return s.sb.N() - value - 1
}

// priorities computes the list-scheduling priority: the longest
// dependence path from the instruction to the completion of any exit,
// weighted by the exit probability mass it gates. Higher is more urgent.
func priorities(sb *ir.Superblock) []float64 {
	n := sb.N()
	// Longest path to each exit's completion.
	depth := make([]int, n)
	order := sb.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		d := sb.Instrs[u].Latency
		for _, ei := range sb.OutEdges(u) {
			e := sb.Edges[ei]
			if v := e.Latency + depth[e.To]; v > d {
				d = v
			}
		}
		depth[u] = d
	}
	prio := make([]float64, n)
	for u := 0; u < n; u++ {
		prio[u] = float64(depth[u])
		if sb.Instrs[u].IsExit() {
			// Exits with higher probability matter more to the AWCT.
			prio[u] += sb.Instrs[u].Prob
		}
	}
	return prio
}

func (s *state) run() error {
	n := s.sb.N()
	for t := 0; s.scheduled < n; t++ {
		if t > s.horizon {
			return fmt.Errorf("cars: no progress by cycle %d (scheduled %d/%d)", t, s.scheduled, n)
		}
		for {
			u, k := s.pickReady(t)
			if u < 0 {
				break
			}
			s.place(u, t, k)
		}
	}
	return nil
}

// pickReady returns the highest-priority unscheduled instruction whose
// predecessors are all scheduled and which can issue at cycle t in at
// least one cluster (ties to the lowest id), with its best cluster; or
// −1. The ready list is kept in that order, so the first instruction
// that can issue wins.
func (s *state) pickReady(t int) (int, int) {
	for _, u := range s.ready {
		// The final exit ends the region, so it waits until every other
		// instruction is scheduled (their completions and copies must
		// fit before the region end).
		if u == s.finalExit && s.scheduled != s.sb.N()-1 {
			continue
		}
		if k, ok := s.bestCluster(u, t); ok {
			return u, k
		}
	}
	return -1, -1
}

// bestCluster evaluates all clusters for issuing u exactly at cycle t
// and returns the winner by (fewest new comms, lightest cluster load,
// lowest index).
func (s *state) bestCluster(u, t int) (int, bool) {
	if s.fixed != nil {
		k := s.fixed[u]
		return k, s.feasibleAt(u, t, k)
	}
	bestK, bestComms, bestLoad := -1, 0, 0
	for k := 0; k < s.m.Clusters; k++ {
		if !s.feasibleAt(u, t, k) {
			continue
		}
		comms, load := len(s.pending), s.load[k]
		if bestK < 0 || comms < bestComms || (comms == bestComms && load < bestLoad) {
			bestK, bestComms, bestLoad = k, comms, load
		}
	}
	return bestK, bestK >= 0
}

// fuSlot indexes fuBusy.
func (s *state) fuSlot(t, k int, class ir.Class) int {
	return (t*s.m.Clusters+k)*ir.NumClasses + int(class)
}

// feasibleAt checks whether u can issue at cycle t in cluster k; on
// success s.pending holds the new communications that requires.
func (s *state) feasibleAt(u, t, k int) bool {
	in := s.sb.Instrs[u]
	s.pending = s.pending[:0]
	units := s.fuCap[k*ir.NumClasses+int(in.Class)]
	if units == 0 || s.fuBusy[s.fuSlot(t, k, in.Class)] >= units {
		return false
	}
	// Dependences.
	for _, ei := range s.sb.InEdges(u) {
		e := s.sb.Edges[ei]
		p := s.out.Place[e.From]
		if e.Kind == ir.Ctrl || p.Cluster == k {
			if t < p.Cycle+e.Latency {
				return false
			}
			continue
		}
		ready := p.Cycle + s.sb.Instrs[e.From].Latency
		if !s.operandViaBus(e.From, ready, t) {
			return false
		}
	}
	// Live-in operands.
	for _, li := range s.liveIns[u] {
		if s.out.Pins.LiveIn[li] == k {
			continue
		}
		if !s.operandViaBus(-(li + 1), 0, t) {
			return false
		}
	}
	// The final exit ends the region at t + λ: every instruction must
	// have completed and every copy (committed or tentative) arrived.
	if u == s.finalExit {
		end := t + in.Latency
		if s.maxDone > end || (s.maxComm >= 0 && s.maxComm+s.m.BusLatency > end) {
			return false
		}
		for _, pc := range s.pending {
			if pc.Cycle+s.m.BusLatency > end {
				return false
			}
		}
		for _, p := range s.sb.LiveOuts {
			if p == u || !s.needsLiveOutComm(p) {
				continue
			}
			if s.commOf[p] < 0 {
				return false // copy not yet committed: wait
			}
		}
	}
	return true
}

// operandViaBus checks that the given value can reach a foreign cluster
// by cycle t, reusing the committed broadcast or tentatively scheduling
// a new one (earliest bus slot at or after ready, arriving by t).
func (s *state) operandViaBus(value, ready, t int) bool {
	if c := s.commOf[s.valueIndex(value)]; c >= 0 {
		return c+s.m.BusLatency <= t
	}
	for _, pc := range s.pending {
		if pc.Producer == value {
			return pc.Cycle+s.m.BusLatency <= t
		}
	}
	slot, ok := s.busSlot(ready, t-s.m.BusLatency, s.pending)
	if !ok {
		return false
	}
	s.pending = append(s.pending, sched.Comm{Producer: value, Cycle: slot})
	return true
}

// needsLiveOutComm reports whether the (scheduled) live-out producer u
// must broadcast its value: some pinned home cluster differs from its
// own.
func (s *state) needsLiveOutComm(u int) bool {
	if s.out.Place[u].Cycle == sched.Unplaced {
		return false
	}
	for _, home := range s.liveHome[u] {
		if home != s.out.Place[u].Cluster {
			return true
		}
	}
	return false
}

// busSlot finds the earliest cycle in [from, to] where a bus is free
// (accounting for occupancy and the given tentative comms).
func (s *state) busSlot(from, to int, pending []sched.Comm) (int, bool) {
	if s.m.Buses < 1 {
		return 0, false
	}
	for c := from; c <= to; c++ {
		free := true
		for tt := c; tt < c+s.occ; tt++ {
			use := s.busBusy[tt]
			for _, pc := range pending {
				if tt >= pc.Cycle && tt < pc.Cycle+s.occ {
					use++
				}
			}
			if use >= s.m.Buses {
				free = false
				break
			}
		}
		if free {
			return c, true
		}
	}
	return 0, false
}

// commit records the broadcast of value at cycle.
func (s *state) commit(value, cycle int) {
	s.out.Comms = append(s.out.Comms, sched.Comm{Producer: value, Cycle: cycle})
	s.commOf[s.valueIndex(value)] = cycle
	if cycle > s.maxComm {
		s.maxComm = cycle
	}
	for tt := cycle; tt < cycle+s.occ; tt++ {
		s.busBusy[tt]++
	}
}

// place commits u at cycle t in cluster k, which bestCluster chose.
func (s *state) place(u, t, k int) {
	s.feasibleAt(u, t, k) // refill s.pending for the chosen cluster
	in := s.sb.Instrs[u]
	s.out.Place[u] = sched.Placement{Cycle: t, Cluster: k}
	s.fuBusy[s.fuSlot(t, k, in.Class)]++
	s.load[k]++
	if done := t + in.Latency; done > s.maxDone {
		s.maxDone = done
	}
	s.scheduled++
	for _, c := range s.pending {
		s.commit(c.Producer, c.Cycle)
	}
	// A live-out produced off its home cluster commits its copy as soon
	// as the value is ready (keeping the End constraint satisfiable).
	if s.needsLiveOutComm(u) && s.commOf[u] < 0 {
		ready := t + in.Latency
		if slot, ok := s.busSlot(ready, ready+s.horizon, nil); ok {
			s.commit(u, slot)
		}
	}
	s.unready(u)
	for _, ei := range s.sb.OutEdges(u) {
		v := s.sb.Edges[ei].To
		if s.predsLeft[v]--; s.predsLeft[v] == 0 {
			s.makeReady(v)
		}
	}
}

// makeReady inserts v into the ready list at its rank.
func (s *state) makeReady(v int) {
	i := sort.Search(len(s.ready), func(i int) bool { return s.rank[s.ready[i]] > s.rank[v] })
	s.ready = append(s.ready, 0)
	copy(s.ready[i+1:], s.ready[i:])
	s.ready[i] = v
}

// unready removes the just-scheduled u from the ready list.
func (s *state) unready(u int) {
	for i, v := range s.ready {
		if v == u {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}
