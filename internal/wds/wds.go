// Package wds implements Worker Dependency Separation (Section IV-A of the
// DATA-WA paper): finding each worker's reachable tasks, generating maximal
// valid task sequences (Eq. 10), constructing the Worker Dependency Graph,
// partitioning it into maximal cliques with Maximum Cardinality Search, and
// organizing the cliques into a Recursive Tree Construction (RTC) tree whose
// sibling subtrees are independent — the property that lets the assignment
// search solve each subtree separately.
package wds

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graphutil"
	"repro/internal/par"
	"repro/internal/spatial"
)

// Options bounds the search effort. Zero values take defaults chosen so a
// planning instant on city-scale data stays interactive on one core.
type Options struct {
	// Travel converts distance to time.
	Travel geo.TravelModel
	// MaxSeqLen caps the length of generated task sequences (default 3).
	MaxSeqLen int
	// MaxReachable caps the reachable set per worker to the nearest tasks
	// (default 8); the dependency graph and the sequence generator both
	// operate on the capped sets.
	MaxReachable int
	// MaxSequences caps |Q_w| per worker after dedup (default 128).
	MaxSequences int
	// Parallelism bounds the goroutines used for the per-worker
	// reachable-set and sequence-generation loop inside Separate: 0 uses
	// one goroutine per CPU, 1 (or any negative value) runs serially.
	// Results are identical at every setting.
	Parallelism int
	// BruteForce disables the spatial grid index inside Separate, scanning
	// the full task pool per worker instead. Kept for ablation and for the
	// indexed-versus-brute-force benchmarks; answers are identical either
	// way.
	BruteForce bool
}

// WithDefaults returns o with zero fields replaced by defaults.
func (o Options) WithDefaults() Options {
	if o.Travel.Speed <= 0 {
		o.Travel = geo.NewTravelModel(0)
	}
	if o.MaxSeqLen <= 0 {
		o.MaxSeqLen = 3
	}
	if o.MaxReachable <= 0 {
		o.MaxReachable = 8
	}
	if o.MaxSequences <= 0 {
		o.MaxSequences = 128
	}
	return o
}

// ReachableTasks returns RS_w, the subset of tasks worker w can serve within
// its availability window starting at time now (Section IV-A.1):
//
//	(i)   c(w.l, s.l) ≤ s.e − t_now  — reachable before expiration,
//	(ii)  c(w.l, s.l) ≤ T_w          — completable within the window,
//	(iii) td(w.l, s.l) ≤ w.d         — within reachable distance.
//
// The result is sorted by distance (ties by id) and capped at
// o.MaxReachable entries.
//
// This variant scans the given slice; Separate and ReachableTasksIndexed
// answer the same query through a spatial grid index, scanning only the
// tasks near w, with identical results.
func ReachableTasks(w *core.Worker, tasks []*core.Task, now float64, o Options) []*core.Task {
	var sc Scratch
	return sc.reachableFrom(w, tasks, now, o.WithDefaults())
}

// ReachableTasksIndexed returns RS_w exactly as ReachableTasks does, but
// gathers candidates from the grid index instead of scanning every task:
// only tasks within w.Reach of w.Loc are examined, so the per-worker cost is
// O(k) in the local task count rather than O(|T|).
func ReachableTasksIndexed(w *core.Worker, ix *spatial.Index, now float64, o Options) []*core.Task {
	var sc Scratch
	return sc.ReachableTasksIndexed(w, ix, now, o)
}

// Scratch holds the reusable intermediate buffers of the per-worker
// reachable-set and sequence computations, so steady-state planning loops
// (a planner calling these once per worker per instant) allocate only their
// results, never their scratch. A Scratch serves one goroutine at a time;
// Separate keeps one per worker goroutine, planners one per instance. The
// zero value is ready to use.
type Scratch struct {
	cands   []*core.Task // spatial-index query results
	keep    []cand       // reachableFrom's filtered candidates
	used    []bool       // sequence-extension membership flags
	cur     core.Sequence
	entries []seqEntry       // per task-set best orderings (bitmask path)
	bests   map[uint64]int32 // task-set bitmask → index into entries
}

// cand pairs a reachable task with its distance for the sort in
// reachableFrom.
type cand struct {
	t *core.Task
	d float64
}

// seqEntry is one deduped task set with its best (minimal-completion)
// ordering.
type seqEntry struct {
	seq        core.Sequence
	completion float64
}

// ReachableTasks is the scratch-reusing form of the package function.
func (sc *Scratch) ReachableTasks(w *core.Worker, tasks []*core.Task, now float64, o Options) []*core.Task {
	return sc.reachableFrom(w, tasks, now, o.WithDefaults())
}

// ReachableTasksIndexed is the scratch-reusing form of the package function.
func (sc *Scratch) ReachableTasksIndexed(w *core.Worker, ix *spatial.Index, now float64, o Options) []*core.Task {
	o = o.WithDefaults()
	if !w.Available(now) {
		return nil
	}
	// Condition (iii) bounds every reachable task to the disc of radius
	// w.Reach; conditions (i)/(ii) only filter further.
	sc.cands = ix.AppendWithin(sc.cands[:0], w.Loc, w.Reach)
	out := sc.reachableFrom(w, sc.cands, now, o)
	clear(sc.cands) // release task pointers held by the scratch buffer
	return out
}

// reachableFrom applies the Section IV-A.1 constraints to a candidate pool.
// Candidates must be a superset of the disc of radius w.Reach around w.Loc
// intersected with the pool the caller reasons about; the exact filter here
// makes the brute-force and indexed paths interchangeable.
func (sc *Scratch) reachableFrom(w *core.Worker, cands []*core.Task, now float64, o Options) []*core.Task {
	if !w.Available(now) {
		return nil
	}
	window := w.Off - now
	keep := sc.keep[:0]
	for _, s := range cands {
		if s.Exp <= now {
			continue
		}
		d := geo.Dist(w.Loc, s.Loc)
		travel := o.Travel.TimeForDist(d)
		if travel > s.Exp-now {
			continue // (i)
		}
		if travel > window {
			continue // (ii)
		}
		if d > w.Reach {
			continue // (iii)
		}
		keep = append(keep, cand{s, d})
	}
	slices.SortFunc(keep, func(a, b cand) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		case a.t.ID < b.t.ID:
			return -1
		case a.t.ID > b.t.ID:
			return 1
		}
		return 0
	})
	if len(keep) > o.MaxReachable {
		keep = keep[:o.MaxReachable]
	}
	out := make([]*core.Task, len(keep))
	for i, c := range keep {
		out[i] = c.t
	}
	sc.keep = keep[:0]
	clear(keep[:cap(keep)]) // release task pointers held by the scratch buffer
	return out
}

// MaximalValidSequences computes Q_w: for every subset of the reachable set
// RS_w (up to o.MaxSeqLen tasks) that admits a valid ordering, the ordering
// with minimal completion time (Eq. 10). Sequences are returned longest
// first, then by completion time, then lexicographically by ids, and the
// list is capped at o.MaxSequences.
//
// The search extends sequences task by task and prunes as soon as an
// extension violates Definition 4, which is sound because validity is
// prefix-closed.
func MaximalValidSequences(w *core.Worker, rs []*core.Task, now float64, o Options) []core.Sequence {
	var sc Scratch
	return sc.MaximalValidSequences(w, rs, now, o)
}

// MaximalValidSequences is the scratch-reusing form of the package function:
// every intermediate structure — the per-set dedup table, the extension
// stack, the usage flags — lives in the Scratch, so a planner's steady-state
// per-worker loop allocates only the returned sequences. An empty reachable
// set (the common case on sparse workloads) returns nil without touching the
// scratch at all.
func (sc *Scratch) MaximalValidSequences(w *core.Worker, rs []*core.Task, now float64, o Options) []core.Sequence {
	if len(rs) == 0 {
		return nil
	}
	o = o.WithDefaults()
	if len(rs) > 64 {
		return maximalValidSequencesByKey(w, rs, now, o)
	}
	// Task sets over at most 64 reachable tasks dedup by bitmask over rs
	// indices — rs holds distinct tasks, so equal masks ⟺ equal id sets,
	// exactly the SetKey equivalence without the string allocations.
	if sc.bests == nil {
		sc.bests = make(map[uint64]int32, 64)
	} else {
		clear(sc.bests)
	}
	entries := sc.entries[:0]
	if cap(sc.used) < len(rs) {
		sc.used = make([]bool, len(rs))
	}
	used := sc.used[:len(rs)]
	clear(used)
	cur := sc.cur[:0]

	var extend func(loc geo.Point, t float64, mask uint64)
	extend = func(loc geo.Point, t float64, mask uint64) {
		if len(cur) > 0 {
			if i, ok := sc.bests[mask]; !ok {
				sc.bests[mask] = int32(len(entries))
				entries = append(entries, seqEntry{seq: cur.Clone(), completion: t})
			} else if t < entries[i].completion {
				entries[i] = seqEntry{seq: cur.Clone(), completion: t}
			}
		}
		if len(cur) >= o.MaxSeqLen {
			return
		}
		for i, s := range rs {
			if used[i] {
				continue
			}
			arrive := t + o.Travel.Time(loc, s.Loc)
			if arrive < s.Pub {
				arrive = s.Pub
			}
			if arrive >= s.Exp || arrive >= w.Off {
				continue
			}
			if geo.Dist(w.Loc, s.Loc) > w.Reach {
				continue
			}
			used[i] = true
			cur = append(cur, s)
			extend(s.Loc, arrive, mask|1<<uint(i))
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	extend(w.Loc, now, 0)
	sc.cur = cur[:0]

	slices.SortFunc(entries, func(a, b seqEntry) int {
		if len(a.seq) != len(b.seq) {
			return len(b.seq) - len(a.seq)
		}
		switch {
		case a.completion < b.completion:
			return -1
		case a.completion > b.completion:
			return 1
		case lessIDs(a.seq, b.seq):
			return -1
		case lessIDs(b.seq, a.seq):
			return 1
		}
		return 0
	})
	n := len(entries)
	if n > o.MaxSequences {
		n = o.MaxSequences
	}
	out := make([]core.Sequence, n)
	for i := range out {
		out[i] = entries[i].seq
	}
	sc.entries = entries[:0]
	clear(entries[:cap(entries)]) // release the sequences held by the scratch
	return out
}

// maximalValidSequencesByKey is the SetKey-deduped fallback for reachable
// sets too large for a 64-bit index mask (only possible with MaxReachable
// raised past 64).
func maximalValidSequencesByKey(w *core.Worker, rs []*core.Task, now float64, o Options) []core.Sequence {
	type best struct {
		seq        core.Sequence
		completion float64
	}
	bests := make(map[string]best)

	var cur core.Sequence
	used := make([]bool, len(rs))

	var extend func(loc geo.Point, t float64)
	extend = func(loc geo.Point, t float64) {
		if len(cur) > 0 {
			key := cur.SetKey()
			if b, ok := bests[key]; !ok || t < b.completion {
				bests[key] = best{seq: cur.Clone(), completion: t}
			}
		}
		if len(cur) >= o.MaxSeqLen {
			return
		}
		for i, s := range rs {
			if used[i] {
				continue
			}
			arrive := t + o.Travel.Time(loc, s.Loc)
			if arrive < s.Pub {
				arrive = s.Pub
			}
			if arrive >= s.Exp || arrive >= w.Off {
				continue
			}
			if geo.Dist(w.Loc, s.Loc) > w.Reach {
				continue
			}
			used[i] = true
			cur = append(cur, s)
			extend(s.Loc, arrive)
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	extend(w.Loc, now)

	out := make([]core.Sequence, 0, len(bests))
	completions := make(map[string]float64, len(bests))
	//datawa:unordered out is totally ordered by the sort.Slice below (length, completion, then lessIDs)
	for key, b := range bests {
		out = append(out, b.seq)
		completions[key] = b.completion
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		ci, cj := completions[out[i].SetKey()], completions[out[j].SetKey()]
		if ci != cj {
			return ci < cj
		}
		return lessIDs(out[i], out[j])
	})
	if len(out) > o.MaxSequences {
		out = out[:o.MaxSequences]
	}
	return out
}

func lessIDs(a, b core.Sequence) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].ID != b[i].ID {
			return a[i].ID < b[i].ID
		}
	}
	return len(a) < len(b)
}

// Separation is the full Worker Dependency Separation state for one
// planning instant: per-worker reachable sets and candidate sequences, the
// dependency graph, and the RTC forest (one tree per connected component).
type Separation struct {
	Workers   []*core.Worker
	Reachable map[int][]*core.Task    // worker id → RS_w
	Sequences map[int][]core.Sequence // worker id → Q_w
	Graph     *graphutil.Graph        // vertices index Workers
	Forest    []*TreeNode
}

// TreeNode is one node of the RTC tree. Workers holds the clique X′
// installed at this node; Children are the trees of the components obtained
// by removing X′. Workers in sibling subtrees are independent.
type TreeNode struct {
	Workers  []*core.Worker
	Children []*TreeNode
}

// AllWorkers returns every worker in the subtree rooted at n, in
// deterministic (pre-order, id-sorted within nodes) order.
func (n *TreeNode) AllWorkers() []*core.Worker {
	if n == nil {
		return nil
	}
	out := append([]*core.Worker(nil), n.Workers...)
	for _, c := range n.Children {
		out = append(out, c.AllWorkers()...)
	}
	return out
}

// EachWorker visits every worker in the subtree in AllWorkers order without
// materializing the slice — the allocation-free walk used by per-tree setup
// loops that run once per planning instant.
func (n *TreeNode) EachWorker(f func(*core.Worker)) {
	if n == nil {
		return
	}
	for _, w := range n.Workers {
		f(w)
	}
	for _, c := range n.Children {
		c.EachWorker(f)
	}
}

// Size returns the number of workers in the subtree.
func (n *TreeNode) Size() int { return len(n.AllWorkers()) }

// Depth returns the height of the subtree (a single node has depth 1).
func (n *TreeNode) Depth() int {
	if n == nil {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Separate runs the complete WDS pipeline for the given workers and tasks
// at time now: reachable sets, maximal valid sequences, worker dependency
// graph (workers are dependent iff they share a reachable task, Section
// IV-A.2), MCS clique partition and RTC tree construction (IV-A.3/IV-A.4).
//
// Reachability is answered through a spatial grid index over the task pool
// (cell size derived from the largest worker reach; see internal/spatial)
// unless o.BruteForce is set, and the per-worker reachable-set and sequence
// loop fans out across o.Parallelism goroutines. Both switches change only
// the cost of the call — the Separation is identical at every setting.
func Separate(workers []*core.Worker, tasks []*core.Task, now float64, o Options) *Separation {
	var sp Separator
	return sp.Separate(workers, tasks, now, o)
}

// Separator runs the WDS pipeline with every intermediate structure — the
// per-goroutine scratch, the spatial index, the dependency graph, the RTC
// builder, and the Separation's own maps — reused across calls, so a planner
// invoking it once per instant allocates only the per-worker results. The
// returned Separation is owned by the Separator and valid until the next
// Separate call; callers that retain it across instants must use the package
// function instead. The zero value is ready to use.
type Separator struct {
	scr   []Scratch
	rs    [][]*core.Task
	qs    [][]core.Sequence
	pairs []taskWorker
	ix    spatial.Index
	g     graphutil.Graph
	b     treeBuilder
	sep   Separation
}

// taskWorker is one (task, worker-index) incidence of the reachable relation.
type taskWorker struct {
	task int
	w    int32
}

// Separate is the scratch-reusing form of the package function; see the
// Separator doc for the ownership contract of the result.
func (sp *Separator) Separate(workers []*core.Worker, tasks []*core.Task, now float64, o Options) *Separation {
	o = o.WithDefaults()
	sep := &sp.sep
	sep.Workers = workers
	if sep.Reachable == nil {
		sep.Reachable = make(map[int][]*core.Task, len(workers))
		sep.Sequences = make(map[int][]core.Sequence, len(workers))
	} else {
		clear(sep.Reachable)
		clear(sep.Sequences)
	}
	clear(sep.Forest)
	sep.Forest = sep.Forest[:0]

	var ix *spatial.Index
	if !o.BruteForce {
		sp.ix.Reset(tasks, spatial.CellSizeForReach(workers))
		ix = &sp.ix
	}
	// Each worker's RS_w and Q_w depend only on that worker and the shared
	// read-only pool, so the loop is embarrassingly parallel; results land
	// in per-index slots and the maps are filled afterwards.
	rs := slices.Grow(sp.rs[:0], len(workers))[:len(workers)]
	qs := slices.Grow(sp.qs[:0], len(workers))[:len(workers)]
	sp.rs, sp.qs = rs, qs
	for len(sp.scr) < par.Workers(o.Parallelism, len(workers)) {
		sp.scr = append(sp.scr, Scratch{})
	}
	par.DoWorker(len(workers), o.Parallelism, func(g, i int) {
		sc := &sp.scr[g]
		w := workers[i]
		if ix != nil {
			rs[i] = sc.ReachableTasksIndexed(w, ix, now, o)
		} else {
			rs[i] = sc.reachableFrom(w, tasks, now, o)
		}
		qs[i] = sc.MaximalValidSequences(w, rs[i], now, o)
	})
	for i, w := range workers {
		sep.Reachable[w.ID] = rs[i]
		sep.Sequences[w.ID] = qs[i]
	}

	// Dependency graph: invert the reachable relation task → workers by
	// sorting the incidence pairs (grouping replaces the former map of
	// per-task worker lists), then connect workers sharing any task. This is
	// O(Σ|RS| log Σ|RS| + edges) instead of the paper's O(|W|²·|RS|)
	// pairwise scan.
	sp.g.Reset(len(workers))
	sep.Graph = &sp.g
	pairs := sp.pairs[:0]
	for idx, w := range workers {
		for _, s := range sep.Reachable[w.ID] {
			pairs = append(pairs, taskWorker{task: s.ID, w: int32(idx)})
		}
	}
	sp.pairs = pairs
	slices.SortFunc(pairs, func(a, b taskWorker) int {
		if a.task != b.task {
			if a.task < b.task {
				return -1
			}
			return 1
		}
		return int(a.w) - int(b.w)
	})
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].task == pairs[i].task {
			j++
		}
		for a := i; a < j; a++ {
			for b := a + 1; b < j; b++ {
				sep.Graph.AddEdge(int(pairs[a].w), int(pairs[b].w))
			}
		}
		i = j
	}

	sp.b.init(sep.Graph)
	flat, offs := sp.b.components()
	for i := 0; i+1 < len(offs); i++ {
		sep.Forest = append(sep.Forest, sp.b.build(flat[offs[i]:offs[i+1]], workers))
	}
	return sep
}

// treeBuilder carries the RTC construction state for one dependency graph:
// dense scratch reused across every node of every tree, so probing a clique
// costs O(component + edges) with no allocations beyond the result. The
// traversals read the graph's sorted neighbor rows directly.
type treeBuilder struct {
	g       *graphutil.Graph
	inComp  []bool
	removed []bool
	seen    []bool
	queue   []int
	touched []int
	// Arenas for the construction's results: tree nodes and the node.Workers
	// backing. Both live until the next init call (the Separation's
	// lifetime), so steady-state tree building allocates only on growth.
	// Each node's Workers span is completed before any other node starts
	// (cliques are installed before recursing), which keeps the spans
	// contiguous; grown-over backings stay alive through the tree's own
	// pointers.
	nodes    []TreeNode
	warena   []*core.Worker
	compFlat []int
	compOffs []int32
}

// init (re)binds the builder to a graph and resets the arenas; dense scratch
// is reused across generations (the traversal invariants leave it
// all-false).
func (b *treeBuilder) init(g *graphutil.Graph) {
	n := g.N()
	b.g = g
	if cap(b.inComp) < n {
		b.inComp = make([]bool, n)
		b.removed = make([]bool, n)
		b.seen = make([]bool, n)
	} else {
		b.inComp = b.inComp[:n]
		b.removed = b.removed[:n]
		b.seen = b.seen[:n]
	}
	clear(b.nodes)
	b.nodes = b.nodes[:0]
	clear(b.warena)
	b.warena = b.warena[:0]
}

// newNode allocates a tree node from the arena. Arena growth may move the
// backing array; nodes handed out earlier remain valid (kept alive by the
// tree's pointers), they just no longer share storage with newer ones.
func (b *treeBuilder) newNode() *TreeNode {
	b.nodes = append(b.nodes, TreeNode{})
	return &b.nodes[len(b.nodes)-1]
}

// components returns the connected components of the bound graph in
// graphutil.Components' format — each ascending, ordered by smallest vertex —
// materialized into builder-owned flat storage: component i is
// flat[offs[i]:offs[i+1]]. The storage is valid until the next init call and
// is not touched by build (nested residual components allocate their own).
func (b *treeBuilder) components() (flat []int, offs []int32) {
	b.compFlat = b.compFlat[:0]
	b.compOffs = append(b.compOffs[:0], 0)
	n := b.g.N()
	for s := 0; s < n; s++ {
		if b.seen[s] {
			continue
		}
		start := len(b.compFlat)
		b.queue = append(b.queue[:0], s)
		b.seen[s] = true
		for head := 0; head < len(b.queue); head++ {
			v := b.queue[head]
			b.compFlat = append(b.compFlat, v)
			for _, u := range b.g.Neighbors(v) {
				if !b.seen[u] {
					b.seen[u] = true
					b.queue = append(b.queue, u)
				}
			}
		}
		slices.Sort(b.compFlat[start:])
		b.compOffs = append(b.compOffs, int32(len(b.compFlat)))
	}
	// Every vertex was visited; release the seen flags for build's probes.
	for _, v := range b.compFlat {
		b.seen[v] = false
	}
	return b.compFlat, b.compOffs
}

// build applies the RTC algorithm (Section IV-A.4) to one connected
// component: partition into maximal cliques via MCS on the chordal
// completion, install the clique whose removal yields the most components
// as the root, and recurse on each remaining component.
func (b *treeBuilder) build(comp []int, workers []*core.Worker) *TreeNode {
	if len(comp) == 0 {
		return nil
	}
	// A component that is a clique is its own only maximal clique, whose
	// removal leaves nothing, so its tree is a single node. Singletons, pairs
	// and small cliques dominate sparse instants; building them directly
	// skips the chordal fill-in and clique machinery entirely.
	if b.g.IsClique(comp) {
		node := b.newNode()
		node.Workers = b.installWorkers(comp, workers)
		return node
	}
	chordal, peo := b.g.FillIn(comp)
	cliques := graphutil.MaximalCliquesChordal(chordal, peo)

	for _, v := range comp {
		b.inComp[v] = true
	}

	// Choose X′ maximizing the number of remaining components; ties prefer
	// the larger clique (smaller residual work), then lexicographic order.
	// Probing a clique only needs the residual component COUNT; the full
	// component lists are materialized once, for the winner.
	bestIdx, bestComps := -1, -1
	for ci, clique := range cliques {
		for _, v := range clique {
			b.removed[v] = true
		}
		count, _ := b.residual(comp, false)
		for _, v := range clique {
			b.removed[v] = false
		}
		better := false
		switch {
		case count > bestComps:
			better = true
		case count == bestComps && bestIdx >= 0 && len(clique) > len(cliques[bestIdx]):
			better = true
		}
		if bestIdx < 0 || better {
			bestIdx, bestComps = ci, count
		}
	}
	for _, v := range cliques[bestIdx] {
		b.removed[v] = true
	}
	_, bestResidual := b.residual(comp, true)
	for _, v := range cliques[bestIdx] {
		b.removed[v] = false
	}

	// Release the component flags before recursing: children mark their own
	// (smaller) membership sets in the same scratch.
	for _, v := range comp {
		b.inComp[v] = false
	}

	node := b.newNode()
	node.Workers = b.installWorkers(cliques[bestIdx], workers)
	for _, sub := range bestResidual {
		if child := b.build(sub, workers); child != nil {
			node.Children = append(node.Children, child)
		}
	}
	return node
}

// installWorkers appends the workers of the given vertices to the worker
// arena, sorted by id, and returns the span as a capacity-capped slice
// (nothing can append through it into the arena).
func (b *treeBuilder) installWorkers(vs []int, workers []*core.Worker) []*core.Worker {
	start := len(b.warena)
	for _, v := range vs {
		b.warena = append(b.warena, workers[v])
	}
	ws := b.warena[start:len(b.warena):len(b.warena)]
	slices.SortFunc(ws, func(a, b *core.Worker) int { return a.ID - b.ID })
	return ws
}

// residual runs the BFS over comp minus the currently removed vertices and
// returns the component count; with collect set it also materializes the
// components — each ascending, ordered by smallest vertex, the format
// graphutil.Components produces (comp is sorted, so seeding the BFS in comp
// order yields that ordering directly). The clique-selection loop probes
// with collect=false and materializes only the winner, so both uses share
// one traversal body and cannot drift apart.
func (b *treeBuilder) residual(comp []int, collect bool) (int, [][]int) {
	count := 0
	var comps [][]int
	touched := b.touched[:0]
	for _, s := range comp {
		if b.seen[s] || b.removed[s] {
			continue
		}
		count++
		var cc []int
		// Pop via a head index: reslicing the front away would permanently
		// erode the scratch buffer's capacity and defeat its reuse.
		b.queue = append(b.queue[:0], s)
		b.seen[s] = true
		touched = append(touched, s)
		for head := 0; head < len(b.queue); head++ {
			v := b.queue[head]
			if collect {
				cc = append(cc, v)
			}
			for _, u := range b.g.Neighbors(v) {
				if b.inComp[u] && !b.removed[u] && !b.seen[u] {
					b.seen[u] = true
					touched = append(touched, u)
					b.queue = append(b.queue, u)
				}
			}
		}
		if collect {
			sort.Ints(cc)
			comps = append(comps, cc)
		}
	}
	for _, v := range touched {
		b.seen[v] = false
	}
	b.touched = touched[:0]
	return count, comps
}
