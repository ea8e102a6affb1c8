// Package graphutil provides the undirected-graph algorithms behind Worker
// Dependency Separation (Section IV-A): connected components, Maximum
// Cardinality Search (Tarjan & Yannakakis 1984), chordal completion via the
// elimination game, maximal cliques of chordal graphs, and a chordality
// test. Vertices are dense ints in [0, N).
//
// Graph is the single adjacency representation: one ascending neighbor row
// per vertex. The algorithms that run on a vertex subset index their scratch
// by rank in the sorted subset, so their cost follows the subset and its
// edges, and the elimination game of FillIn runs on bitset rows over that
// rank space.
package graphutil

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Graph is a simple undirected graph with a fixed vertex count, stored as
// one ascending neighbor row per vertex.
type Graph struct {
	rows [][]int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative vertex count %d", n))
	}
	return &Graph{rows: make([][]int, n)}
}

// N returns the vertex count.
func (g *Graph) N() int { return len(g.rows) }

// Reset reinitializes g to an empty graph on n vertices, reusing the row
// storage of earlier generations — the zero-steady-state-allocation path for
// callers that rebuild a graph every planning instant. The zero Graph value
// is valid input.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graphutil: negative vertex count %d", n))
	}
	// Grow over the full capacity so rows beyond the previous length keep
	// their backing arrays too.
	if c := cap(g.rows); c < n {
		g.rows = append(g.rows[:c], make([][]int, n-c)...)
	}
	g.rows = g.rows[:n]
	for v := range g.rows {
		g.rows[v] = g.rows[v][:0]
	}
}

// AddEdge inserts the undirected edge {u, v}; self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.check(u)
	g.check(v)
	g.insert(u, v)
	g.insert(v, u)
}

// insert adds u to v's row, keeping it ascending and duplicate-free.
// Appending in ascending order, the common construction order, skips the
// search.
func (g *Graph) insert(v, u int) {
	row := g.rows[v]
	if n := len(row); n == 0 || row[n-1] < u {
		g.rows[v] = append(row, u)
		return
	}
	if i, found := slices.BinarySearch(row, u); !found {
		g.rows[v] = slices.Insert(row, i, u)
	}
}

func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.rows) {
		panic(fmt.Sprintf("graphutil: vertex %d out of range [0,%d)", v, len(g.rows)))
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, found := slices.BinarySearch(g.rows[u], v)
	return found
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.rows[v])
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, row := range g.rows {
		total += len(row)
	}
	return total / 2
}

// Neighbors returns the ascending neighbor row of v. The slice is g's own
// storage: callers must not modify it, and it is valid until the next
// AddEdge or Reset.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	return g.rows[v]
}

// Components returns the connected components over the vertices for which
// include(v) is true (all vertices when include is nil). Each component is
// sorted ascending and components are ordered by their smallest vertex.
func (g *Graph) Components(include func(int) bool) [][]int {
	in := func(v int) bool { return include == nil || include(v) }
	seen := make([]bool, len(g.rows))
	var comps [][]int
	for s := range g.rows {
		if seen[s] || !in(s) {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for head := 0; head < len(comp); head++ {
			for _, u := range g.rows[comp[head]] {
				if !seen[u] && in(u) {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		// Seeds ascend, so components come out ordered by smallest vertex.
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// sortedSubset returns the distinct vertices ascending; a vertex's index in
// it is its rank, which the subset algorithms use to index their scratch.
func (g *Graph) sortedSubset(vertices []int) []int {
	for _, v := range vertices {
		g.check(v)
	}
	return slices.Compact(slices.Sorted(slices.Values(vertices)))
}

// rank returns u's index in the ascending subset, or -1 if u is not in it.
func rank(subset []int, u int) int {
	if i, found := slices.BinarySearch(subset, u); found {
		return i
	}
	return -1
}

// MCS runs Maximum Cardinality Search over the given vertex subset and
// returns the visit order (first visited first). Ties break toward the
// smallest vertex id, so the result is deterministic. The *reverse* of the
// visit order is a perfect elimination ordering when the induced subgraph
// is chordal.
func (g *Graph) MCS(vertices []int) []int {
	return g.mcs(g.sortedSubset(vertices))
}

// mcs is MCS over an ascending, duplicate-free subset.
func (g *Graph) mcs(subset []int) []int {
	// weight[r] is the visited-neighbor count of the rank-r vertex, or -1
	// once it is visited. Scanning ranks ascending breaks ties toward the
	// smallest id.
	weight := make([]int, len(subset))
	order := make([]int, 0, len(subset))
	for range subset {
		best := -1
		for r, w := range weight {
			if w >= 0 && (best < 0 || w > weight[best]) {
				best = r
			}
		}
		weight[best] = -1
		order = append(order, subset[best])
		for _, u := range g.rows[subset[best]] {
			if r := rank(subset, u); r >= 0 && weight[r] >= 0 {
				weight[r]++
			}
		}
	}
	return order
}

// FillIn runs the elimination game on the subgraph induced by vertices,
// using the reverse MCS visit order as the elimination order. It returns
// the chordal completion H (on the same vertex ids, containing only edges
// among the subset plus fill edges) and the perfect elimination ordering of
// H (first eliminated first).
//
// The game runs on bitset rows indexed by rank in the sorted subset:
// eliminating v ORs its remaining neighborhood into each remaining
// neighbor's row, one 64-bit word at a time.
func (g *Graph) FillIn(vertices []int) (*Graph, []int) {
	subset := g.sortedSubset(vertices)
	k := len(subset)
	order := g.mcs(subset)
	peo := make([]int, k)
	for i, v := range order {
		peo[k-1-i] = v
	}

	words := (k + 63) / 64
	adj := make([]uint64, k*words) // rank r's row is adj[r*words:(r+1)*words]
	for r, v := range subset {
		row := adj[r*words : (r+1)*words]
		for _, u := range g.rows[v] {
			if q := rank(subset, u); q >= 0 {
				row[q/64] |= 1 << (q % 64)
			}
		}
	}
	alive := make([]uint64, words)
	for r := range k {
		alive[r/64] |= 1 << (r % 64)
	}
	later := make([]uint64, words)
	for _, v := range peo {
		r := rank(subset, v)
		alive[r/64] &^= 1 << (r % 64)
		row := adj[r*words : (r+1)*words]
		for w := range later {
			later[w] = row[w] & alive[w]
		}
		// The later neighbors of v must form a clique.
		for w, word := range later {
			for ; word != 0; word &= word - 1 {
				q := w*64 + bits.TrailingZeros64(word)
				qrow := adj[q*words : (q+1)*words]
				for x := range qrow {
					qrow[x] |= later[x]
				}
				qrow[q/64] &^= 1 << (q % 64)
			}
		}
	}

	// Rows ascend by rank, hence by id; they share one backing array, each
	// capacity-capped so an AddEdge on H cannot overwrite its successor.
	total := 0
	for _, word := range adj {
		total += bits.OnesCount64(word)
	}
	flat := make([]int, 0, total)
	h := New(len(g.rows))
	for r, v := range subset {
		start := len(flat)
		for w, word := range adj[r*words : (r+1)*words] {
			for ; word != 0; word &= word - 1 {
				flat = append(flat, subset[w*64+bits.TrailingZeros64(word)])
			}
		}
		h.rows[v] = flat[start:len(flat):len(flat)]
	}
	return h, peo
}

// MaximalCliquesChordal returns the maximal cliques of a chordal graph h
// restricted to the vertices of the given perfect elimination ordering.
// Each candidate clique is {v} ∪ {later neighbors of v}; non-maximal
// candidates are filtered out. Cliques are sorted internally and ordered by
// their smallest vertex for determinism.
func MaximalCliquesChordal(h *Graph, peo []int) [][]int {
	ids := h.sortedSubset(peo)
	pos := make([]int, len(ids)) // by rank
	for i, v := range peo {
		pos[rank(ids, v)] = i
	}
	cands := make([][]int, 0, len(peo))
	for _, v := range peo {
		pv := pos[rank(ids, v)]
		c := append(make([]int, 0, 1+len(h.rows[v])), v)
		for _, u := range h.rows[v] {
			if r := rank(ids, u); r >= 0 && pos[r] > pv {
				c = append(c, u)
			}
		}
		sort.Ints(c)
		cands = append(cands, c)
	}
	// Filter cliques contained in another candidate.
	var out [][]int
	for i, c := range cands {
		maximal := true
		for j, d := range cands {
			if i == j || len(c) > len(d) {
				continue
			}
			if len(c) == len(d) && i < j {
				continue // keep the first of duplicates
			}
			if subset(c, d) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// subset reports whether sorted slice a ⊆ sorted slice b.
func subset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// IsClique reports whether the given vertices are pairwise adjacent in g.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// IsChordal reports whether the subgraph induced by vertices is chordal, by
// the classic MCS test: for each v, the neighbors visited before it — its
// later neighbors in the elimination order — must all be adjacent to the
// one of them visited last.
func (g *Graph) IsChordal(vertices []int) bool {
	subset := g.sortedSubset(vertices)
	order := g.mcs(subset)
	pos := make([]int, len(subset)) // by rank
	for i, v := range order {
		pos[rank(subset, v)] = i
	}
	var earlier []int
	for i, v := range order {
		earlier = earlier[:0]
		w, pw := -1, -1
		for _, u := range g.rows[v] {
			if r := rank(subset, u); r >= 0 && pos[r] < i {
				earlier = append(earlier, u)
				if pos[r] > pw {
					w, pw = u, pos[r]
				}
			}
		}
		for _, u := range earlier {
			if u != w && !g.HasEdge(u, w) {
				return false
			}
		}
	}
	return true
}
