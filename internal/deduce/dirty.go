package deduce

import (
	"math/bits"

	"vcsched/internal/ir"
)

// This file holds the marks that make Propagate's passes incremental.
// Propagate keeps its pass loop, its rule order and its one budget step
// per pass; inside a pass, the three costliest rules visit only the
// items whose inputs changed since their last clean visit:
//
//   - U2/D1 (rulePrunePairs) visits marked pairs, in index order. A pair
//     reads its own combination words and status and the bounds of its
//     two instructions, so setCombWord and trailPair mark the pair, and
//     a bound move marks the node; rulePrunePairs turns node marks into
//     pair marks through the sgIndex incidence CSR before it visits.
//   - D2 (ruleWindowPacking) visits marked instruction classes. A class
//     reads the bounds of its members, so a bound move marks the node's
//     class. Copy also reads the pending PLCs, the communications and
//     the bounds of PLC producers and consumers: addNode, a PLC append,
//     and any bound move while PLCs exist mark Copy. Copy is the last
//     class, so a mark it gets from another class's visit is served in
//     the same pass.
//   - U3 (ruleCCCoherence) rescans only when the union-find's version
//     moved or a pair's status was undone since its last complete scan.
//
// Trail undo marks what it restores, the same way the forward mutation
// did. A mark is cleared only after the item's visit returned without
// error, and only when that visit leaves the item at a fixpoint: a
// pair visit is idempotent, a D2 visit that moved bounds has re-marked
// its own class. Skipped items are exactly those whose visit would
// change nothing, so every pass makes the same changes, in the same
// order, as a full scan, and step counts stay the same.

const copyMask = 1 << ir.Copy

// allClasses marks every instruction class.
const allClasses = 1<<ir.NumClasses - 1

// touchNode records a bound move (or its undo) on node for U2/D1 and D2.
func (st *State) touchNode(node int) {
	if node < st.nOrig {
		st.nodeDirty[node>>6] |= 1 << uint(node&63)
	}
	st.classDirty |= 1 << st.class[node]
	if len(st.plcs) > 0 {
		st.classDirty |= copyMask
	}
}

// markPair records a change to pair i's status or combination set.
func (st *State) markPair(i int) { st.pairDirty[i>>6] |= 1 << uint(i&63) }

// markAllDirty makes the next pass visit every item, as a full scan
// would. New states and clones start this way.
func (st *State) markAllDirty() {
	clear(st.nodeDirty)
	for w := range st.pairDirty {
		st.pairDirty[w] = ^uint64(0)
	}
	if r := len(st.pairs) & 63; r != 0 {
		st.pairDirty[len(st.pairDirty)-1] = 1<<uint(r) - 1
	}
	st.classDirty = allClasses
	st.u3Ver = 0
}

// expandNodeMarks moves every node mark onto the node's pairs.
func (st *State) expandNodeMarks() {
	idx := st.idx
	for w, word := range st.nodeDirty {
		for word != 0 {
			node := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, pi := range idx.pairsOf[idx.pairStart[node]:idx.pairStart[node+1]] {
				st.markPair(int(pi))
			}
		}
		st.nodeDirty[w] = 0
	}
}

// dirtyWords returns the number of 64-bit mark words covering n items.
func dirtyWords(n int) int { return (n + 63) >> 6 }
