// Package matching computes maximum-weight matchings on small undirected
// graphs. The paper's stage 3 (outedge elimination) selects virtual
// cluster pairs to fuse via a maximum-weight matching of the matching
// graph (the paper uses LEDA; we implement our own).
//
// Virtual cluster graphs of superblocks are small, so MaxWeight uses an
// exact bitmask dynamic program for graphs of up to ExactLimit vertices
// and falls back to a greedy matching with 2-opt local improvement for
// larger graphs.
package matching

import (
	"math"
	"sort"
)

// Edge is an undirected weighted edge.
type Edge struct {
	U, V   int
	Weight int
}

// ExactLimit is the largest vertex count for which MaxWeight is exact.
const ExactLimit = 22

// MaxWeight returns a maximum-weight matching of the graph with n
// vertices: a subset of edges, no two sharing a vertex, maximizing total
// weight. Edges with non-positive weight are never selected. The result
// is exact for n <= ExactLimit and a 2-opt-improved greedy approximation
// beyond.
func MaxWeight(n int, edges []Edge) []Edge {
	pos := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.Weight > 0 && e.U != e.V && e.U >= 0 && e.V >= 0 && e.U < n && e.V < n {
			pos = append(pos, e)
		}
	}
	if len(pos) == 0 {
		return nil
	}
	if n <= ExactLimit {
		return exact(n, pos)
	}
	return greedy(n, pos)
}

// Weight sums the weights of a matching.
func Weight(m []Edge) int {
	w := 0
	for _, e := range m {
		w += e.Weight
	}
	return w
}

// IsMatching reports whether no two edges share a vertex.
func IsMatching(m []Edge) bool {
	seen := make(map[int]bool, 2*len(m))
	for _, e := range m {
		if seen[e.U] || seen[e.V] || e.U == e.V {
			return false
		}
		seen[e.U] = true
		seen[e.V] = true
	}
	return true
}

// exact solves maximum-weight matching by DP over vertex subsets:
// best[S] = best matching weight using only vertices in S. O(2^n · deg).
// The table is the only 2^n-sized allocation, so its element is as
// narrow as the total edge weight allows: int16 in practice (8 MiB at
// ExactLimit), int32 beyond.
func exact(n int, edges []Edge) []Edge {
	total := 0
	for _, e := range edges {
		total += e.Weight
	}
	if total <= math.MaxInt16 {
		return exactDP[int16](n, edges)
	}
	return exactDP[int32](n, edges)
}

func exactDP[W int16 | int32](n int, edges []Edge) []Edge {
	adj := make([][]Edge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
	}
	// edgeAt[u*n+v] (u < v) is the heaviest edge between u and v, the
	// first one on ties; −1 when there is none.
	edgeAt := make([]int32, n*n)
	for i := range edgeAt {
		edgeAt[i] = -1
	}
	for i, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if old := edgeAt[u*n+v]; old < 0 || edges[old].Weight < e.Weight {
			edgeAt[u*n+v] = int32(i)
		}
	}
	size := 1 << n
	best := make([]W, size)
	// choose returns the edge matching the lowest vertex of s in s's
	// optimum (the first strict improvement in adjacency order), or −1
	// when that vertex stays unmatched. best must be final for every
	// proper subset of s.
	choose := func(s int) (W, int32) {
		low := lowestBit(s)
		rest := s &^ (1 << low)
		w, ch := best[rest], int32(-1)
		for _, e := range adj[low] {
			other := e.U + e.V - low
			if s&(1<<other) == 0 {
				continue
			}
			u, v := low, other
			if u > v {
				u, v = v, u
			}
			ei := edgeAt[u*n+v]
			if c := W(edges[ei].Weight) + best[rest&^(1<<other)]; c > w {
				w, ch = c, ei
			}
		}
		return w, ch
	}
	for s := 1; s < size; s++ {
		best[s], _ = choose(s)
	}
	// Reconstruct, recomputing each step's choice instead of storing a
	// second 2^n table.
	var out []Edge
	s := size - 1
	for s != 0 {
		_, ch := choose(s)
		if ch < 0 {
			s &^= 1 << lowestBit(s)
			continue
		}
		e := edges[ch]
		out = append(out, e)
		s &^= 1 << e.U
		s &^= 1 << e.V
	}
	return out
}

func lowestBit(s int) int {
	b := 0
	for s&1 == 0 {
		s >>= 1
		b++
	}
	return b
}

// greedy picks edges in decreasing weight order, then tries 2-opt swaps:
// replacing one matched edge with two currently unmatched edges of
// larger total weight.
func greedy(n int, edges []Edge) []Edge {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	matched := make([]bool, n)
	var m []Edge
	take := func(e Edge) {
		m = append(m, e)
		matched[e.U] = true
		matched[e.V] = true
	}
	for _, e := range sorted {
		if !matched[e.U] && !matched[e.V] {
			take(e)
		}
	}
	// 2-opt improvement: for each matched edge (u,v), look for free
	// partners u−a and v−b with weight(ua)+weight(vb) > weight(uv).
	adj := make(map[[2]int]int)
	neighbors := make([][]int, n)
	for _, e := range sorted {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if w, ok := adj[[2]int{u, v}]; !ok || w < e.Weight {
			adj[[2]int{u, v}] = e.Weight
		}
		neighbors[e.U] = append(neighbors[e.U], e.V)
		neighbors[e.V] = append(neighbors[e.V], e.U)
	}
	weight := func(u, v int) (int, bool) {
		if u > v {
			u, v = v, u
		}
		w, ok := adj[[2]int{u, v}]
		return w, ok
	}
	improved := true
	for round := 0; improved && round < 4; round++ {
		improved = false
		for i := 0; i < len(m); i++ {
			e := m[i]
			// Tentatively remove e, then look for two replacement edges
			// (e.U−a) and (e.V−b) touching only free vertices.
			matched[e.U], matched[e.V] = false, false
			bestGain, bestA, bestB := 0, -1, -1
			for _, a := range neighbors[e.U] {
				if matched[a] || a == e.U || a == e.V {
					continue
				}
				wa, ok := weight(e.U, a)
				if !ok {
					continue
				}
				for _, b := range neighbors[e.V] {
					if matched[b] || b == a || b == e.U || b == e.V {
						continue
					}
					wb, ok := weight(e.V, b)
					if !ok {
						continue
					}
					if gain := wa + wb - e.Weight; gain > bestGain {
						bestGain, bestA, bestB = gain, a, b
					}
				}
			}
			if bestGain > 0 {
				wa, _ := weight(e.U, bestA)
				wb, _ := weight(e.V, bestB)
				m[i] = Edge{U: e.U, V: bestA, Weight: wa}
				matched[e.U], matched[bestA] = true, true
				take(Edge{U: e.V, V: bestB, Weight: wb})
				improved = true
			} else {
				matched[e.U], matched[e.V] = true, true
			}
		}
	}
	return m
}
