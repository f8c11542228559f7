package matching

import (
	"math/rand"
	"slices"
	"testing"
)

// exactMapDP is the exact solver as it was before the table rewrite:
// edges looked up through a map and the choice of every subset kept in
// a second 2^n table. It is the reference exact must match edge for
// edge, ties included.
func exactMapDP(n int, edges []Edge) []Edge {
	adj := make([][]Edge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
	}
	size := 1 << n
	best := make([]int32, size)
	choice := make([]int32, size)
	edgeIdx := make(map[[2]int]int32, len(edges))
	for i, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if old, ok := edgeIdx[[2]int{u, v}]; !ok || edges[old].Weight < e.Weight {
			edgeIdx[[2]int{u, v}] = int32(i)
		}
	}
	for s := 1; s < size; s++ {
		choice[s] = -1
		low := lowestBit(s)
		rest := s &^ (1 << low)
		best[s] = best[rest]
		for _, e := range adj[low] {
			other := e.U + e.V - low
			if s&(1<<other) == 0 {
				continue
			}
			u, v := low, other
			if u > v {
				u, v = v, u
			}
			ei := edgeIdx[[2]int{u, v}]
			w := int32(edges[ei].Weight) + best[s&^(1<<low)&^(1<<other)]
			if w > best[s] {
				best[s] = w
				choice[s] = ei
			}
		}
	}
	var out []Edge
	s := size - 1
	for s != 0 {
		if choice[s] < 0 {
			s &^= 1 << lowestBit(s)
			continue
		}
		e := edges[choice[s]]
		out = append(out, e)
		s &^= 1 << e.U
		s &^= 1 << e.V
	}
	return out
}

// TestExactMatchesMapDP compares exact with the reference on random
// graphs with parallel edges, equal weights (ties) and, in some
// trials, weights too large for the narrow table.
func TestExactMatchesMapDP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(11)
		maxW := 4
		if trial%5 == 0 {
			maxW = 40000
		}
		var edges []Edge
		for k := rng.Intn(3 * n); k >= 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, Edge{U: u, V: v, Weight: 1 + rng.Intn(maxW)})
		}
		if len(edges) == 0 {
			continue
		}
		if got, want := exact(n, edges), exactMapDP(n, edges); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, edges %v): exact %v, want %v", trial, n, edges, got, want)
		}
	}
}

func benchmarkGraph(n int) []Edge {
	rng := rand.New(rand.NewSource(5))
	var edges []Edge
	for k := 0; k < 3*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, Weight: 1 + rng.Intn(6)})
		}
	}
	return edges
}

var exactSink []Edge

// BenchmarkExact times the DP at the exact limit on a sparse graph of
// the shape stage 3 builds.
func BenchmarkExact(b *testing.B) {
	edges := benchmarkGraph(ExactLimit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactSink = exact(ExactLimit, edges)
	}
}
