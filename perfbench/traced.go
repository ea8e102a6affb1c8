package main

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/geo"
	"repro/internal/predict"
	"repro/internal/spatial"
	"repro/internal/stream"
	"repro/internal/wds"
)

// Chrome trace tracks: the replay goroutine, one per shard planner, and the
// serial replay of captured planning instants.
const (
	trackLoop   = 0
	trackShard0 = 1
	trackReplay = 1 + shards
)

// tracer records the traced run: spans around every call the benchmark
// makes into the system, the planner and forecaster calls the dispatcher
// makes through the decorators below, and the serial replay of each captured
// planning instant through the public layer functions.
type tracer struct {
	log *spanLog
	// epoch is the number of the next Tick: ingest spans before it and the
	// Tick's own spans share it as their trace id. curTick is the open Tick
	// span (-1 between ticks). Only the replay goroutine writes them, and
	// only while no planner runs.
	epoch   int
	curTick int
	// off stops recording once the replay reaches the horizon: the drain
	// epochs of a chaos workload are outside the measured replay.
	off bool

	encode, decode, ingest wireStat
	backlogMax             int

	mu        sync.Mutex // guards the fields below, written by shard planners
	planNS    []int64
	poolW     []int
	poolT     []int
	pending   []*instant
	forecasts []int64
	virtuals  int

	replayWall time.Duration // time spent replaying captured instants
	layers     *layerReplay
}

type wireStat struct {
	ns    int64
	bytes int
}

func newTracer(o assign.Options) *tracer {
	return &tracer{log: newSpanLog(), curTick: -1, layers: newLayerReplay(o)}
}

func (t *tracer) begin(name string) int {
	return t.log.begin(name, -1, t.epoch, trackLoop)
}

func (t *tracer) endWire(id, bytes int, st *wireStat) {
	st.ns += t.log.end(id).Nanoseconds()
	st.bytes += bytes
}

// tick runs one timed epoch, then replays the planning instants the epoch
// captured. The replay runs after the Tick returns, so it never overlaps the
// live planners; its time is kept out of the traced events_per_s.
func (t *tracer) tick(d *datawa.Dispatcher) time.Duration {
	t.backlogMax = max(t.backlogMax, d.Snapshot().QueueDepth)
	t.curTick = t.log.begin("dispatch.tick", -1, t.epoch, trackLoop)
	d.Tick()
	wall := t.log.end(t.curTick)
	t.curTick = -1

	r0 := time.Now()
	t.mu.Lock()
	pending := t.pending
	t.pending = nil
	t.mu.Unlock()
	// Shards finish in any order; replay in shard order so the trace and
	// the replayed planners' scratch history are the same on every run.
	slices.SortStableFunc(pending, func(a, b *instant) int { return a.shard - b.shard })
	for _, in := range pending {
		t.layers.replay(t.log, t.epoch, in)
	}
	t.replayWall += time.Since(r0)
	t.epoch++
	return wall
}

// instant is one captured planning call: deep copies of the pool the
// planner saw, the planner kind that served it, and its live duration.
type instant struct {
	shard   int
	kind    string
	workers []*core.Worker
	tasks   []*core.Task
	now     float64
	liveNS  int64
}

func capture(workers []*core.Worker, tasks []*core.Task, now float64) *instant {
	ws := make([]core.Worker, len(workers))
	in := &instant{now: now, workers: make([]*core.Worker, len(workers)), tasks: make([]*core.Task, len(tasks))}
	for i, w := range workers {
		ws[i] = *w
		in.workers[i] = &ws[i]
	}
	ts := make([]core.Task, len(tasks))
	for i, s := range tasks {
		ts[i] = *s
		in.tasks[i] = &ts[i]
	}
	return in
}

// timedPlanner decorates one shard planner (or one rung of a governor
// ladder): it times each Plan call as a child of the open Tick span and
// captures the instant for the layer replay. Plans pass through untouched.
type timedPlanner struct {
	inner assign.Planner
	shard int
	tr    *tracer
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

// SetParallelism forwards the dispatcher's per-planner fan-out, so a
// decorated planner runs with the same parallelism as a bare one.
func (p *timedPlanner) SetParallelism(n int) {
	if sp, ok := p.inner.(interface{ SetParallelism(int) }); ok {
		sp.SetParallelism(n)
	}
}

func (p *timedPlanner) Plan(workers []*core.Worker, tasks []*core.Task, now float64) core.Plan {
	if p.tr.off {
		return p.inner.Plan(workers, tasks, now)
	}
	in := capture(workers, tasks, now)
	in.shard, in.kind = p.shard, plannerKind(p.inner)
	id := p.tr.log.begin("assign.plan", p.tr.curTick, p.tr.epoch, trackShard0+p.shard)
	plan := p.inner.Plan(workers, tasks, now)
	in.liveNS = p.tr.log.end(id).Nanoseconds()
	p.tr.mu.Lock()
	p.tr.planNS = append(p.tr.planNS, in.liveNS)
	p.tr.poolW = append(p.tr.poolW, len(workers))
	p.tr.poolT = append(p.tr.poolT, len(tasks))
	p.tr.pending = append(p.tr.pending, in)
	p.tr.mu.Unlock()
	return plan
}

// historyBounded is what the dispatcher's forecaster provides: a stream
// forecaster whose history feed may be pruned.
type historyBounded interface {
	stream.Forecaster
	stream.HistoryBounded
}

// timedForecaster decorates the dispatcher's forecaster the same way.
type timedForecaster struct {
	inner historyBounded
	tr    *tracer
}

func (f *timedForecaster) Virtuals(published []*core.Task, now float64) []*core.Task {
	if f.tr.off {
		return f.inner.Virtuals(published, now)
	}
	id := f.tr.log.begin("predict.forecast", f.tr.curTick, f.tr.epoch, trackLoop)
	vs := f.inner.Virtuals(published, now)
	ns := f.tr.log.end(id).Nanoseconds()
	f.tr.mu.Lock()
	f.tr.forecasts = append(f.tr.forecasts, ns)
	f.tr.virtuals += len(vs)
	f.tr.mu.Unlock()
	return vs
}

func (f *timedForecaster) Span() float64        { return f.inner.Span() }
func (f *timedForecaster) HistorySpan() float64 { return f.inner.HistorySpan() }

// prefixedForecaster prepends the training history to the published feed,
// as the façade's forecaster does, so early forecast windows are complete.
type prefixedForecaster struct {
	inner  historyBounded
	prefix []*core.Task
}

func (p *prefixedForecaster) Virtuals(published []*core.Task, now float64) []*core.Task {
	all := make([]*core.Task, 0, len(p.prefix)+len(published))
	all = append(all, p.prefix...)
	all = append(all, published...)
	return p.inner.Virtuals(all, now)
}

func (p *prefixedForecaster) Span() float64        { return p.inner.Span() }
func (p *prefixedForecaster) HistorySpan() float64 { return p.inner.HistorySpan() }

// Framework defaults the façade applies to frameworkConfig's zero fields;
// the traced run rebuilds the demand model and planners with them.
const (
	seriesK          = 3
	seriesDeltaT     = 5.0
	seriesWindow     = 8
	ddgnnEpochs      = 15
	virtualValidTime = 40.0
)

// plannerOptions mirrors the façade's planner options for frameworkConfig.
func plannerOptions(par int) assign.Options {
	return assign.Options{
		WDS:         wds.Options{Travel: geo.NewTravelModel(geo.DefaultSpeed)},
		MaxNodes:    maxNodes,
		Parallelism: par,
	}
}

// trainForecaster mirrors Framework.TrainDemand and the façade's sampled
// forecaster: it fits the DDGNN on the trace's history and wraps it in the
// scenario sampler SSP plans against.
func trainForecaster(in *instance) (historyBounded, error) {
	hist := in.sc.History
	if len(hist) == 0 {
		return nil, fmt.Errorf("no demand history")
	}
	t0, tEnd := hist[0].Pub, hist[0].Pub
	for _, s := range hist {
		t0, tEnd = min(t0, s.Pub), max(tEnd, s.Pub)
	}
	c := in.sc.Config
	cfg := predict.SeriesConfig{Grid: geo.NewGrid(c.Region, c.GridRows, c.GridCols), K: seriesK, DeltaT: seriesDeltaT, T0: t0}
	windows := predict.BuildSeries(cfg, hist, tEnd).Windows(seriesWindow, 1)
	if len(windows) == 0 {
		return nil, fmt.Errorf("history too short for a %d-vector window", seriesWindow)
	}
	model := predict.NewDDGNN(predict.DDGNNConfig{
		K: seriesK, Hidden: 16, Embed: 8,
		Train: predict.TrainConfig{Epochs: ddgnnEpochs, LR: 0.02, WeightDecay: 1e-3, Seed: c.Seed},
	})
	if err := model.Fit(windows); err != nil {
		return nil, fmt.Errorf("demand training: %w", err)
	}
	point := predict.NewForecaster(model, cfg, seriesWindow, predict.DefaultThreshold, virtualValidTime)
	sampler := predict.NewScenarioSampler(point, predict.DefaultSamples, c.Seed)
	return &prefixedForecaster{inner: sampler, prefix: append([]*core.Task(nil), hist...)}, nil
}

// tracedDispatcher mirrors Framework.NewDispatcher for the workload, with
// every shard planner, every governor-ladder rung and the forecaster wrapped
// in the timing decorators. It returns the dispatcher and the demand
// training time (0 when the method does not forecast).
func tracedDispatcher(in *instance, tr *tracer) (*dispatch.Dispatcher, time.Duration, error) {
	dc := in.dispatchConfig()
	c := in.sc.Config
	par := parallelism()
	cfg := dispatch.Config{
		Shards: dc.Shards, HaloRadius: dc.HaloRadius, Step: dc.Step, Now: dc.Now,
		Admission: dc.Admission, Governor: dc.Governor, Obs: dc.Obs,
		Travel:      geo.NewTravelModel(geo.DefaultSpeed),
		Parallelism: par,
		Grid:        geo.NewGrid(c.Region, c.GridRows, c.GridCols),
	}
	opts := plannerOptions(par)
	wrap := func(shard int, p assign.Planner) assign.Planner {
		return &timedPlanner{inner: p, shard: shard, tr: tr}
	}
	var top func() assign.Planner
	var train time.Duration
	switch in.spec.Method {
	case datawa.MethodGreedy:
		top = func() assign.Planner { return &assign.Greedy{Opts: opts} }
	case datawa.MethodDTA:
		top = func() assign.Planner { return &assign.Search{Opts: opts} }
	case datawa.MethodSSP:
		t0 := time.Now()
		f, err := trainForecaster(in)
		if err != nil {
			return nil, 0, err
		}
		train = time.Since(t0)
		top = func() assign.Planner { return &assign.SSP{Opts: opts, Samples: predict.DefaultSamples} }
		cfg.Forecast = &timedForecaster{inner: f, tr: tr}
		// The façade forces full replanning for SSP (see NewDispatcher).
		cfg.DisableIncremental = true
	default:
		return nil, 0, fmt.Errorf("traced run does not mirror method %q", in.spec.Method)
	}
	cfg.NewPlanner = func(shard int) assign.Planner { return wrap(shard, top()) }
	if dc.Governor.Budget > 0 {
		cfg.NewLadder = func(shard int) []assign.Planner {
			ladder := []assign.Planner{top()}
			switch in.spec.Method {
			case datawa.MethodGreedy:
			case datawa.MethodSSP:
				ladder = append(ladder, &assign.Search{Opts: opts}, &assign.Greedy{Opts: opts})
			default:
				ladder = append(ladder, &assign.Greedy{Opts: opts})
			}
			ladder = append(ladder, &assign.Match{Opts: opts})
			for i, p := range ladder {
				ladder[i] = wrap(shard, p)
			}
			return ladder
		}
	}
	return dispatch.New(cfg), train, nil
}

func plannerKind(p assign.Planner) string {
	switch p.(type) {
	case *assign.Search:
		return "search"
	case *assign.SSP:
		return "ssp"
	case *assign.Greedy:
		return "greedy"
	case *assign.Match:
		return "match"
	}
	return p.Name()
}

// layerTotals accumulates the layer replay over every captured instant.
type layerTotals struct {
	instants                                int
	indexNS, queryNS, reachNS, seqNS        int64
	separateNS, fillNS, planNS, liveNS      int64
	searchNS                                int64
	candidates, reachable, sequences, edges int64
	components, largest, fillEdges, nodes   int64
}

// layerReplay replays captured instants serially through the public
// functions of spatial, wds, graphutil and assign, one span per layer call.
type layerReplay struct {
	opts     assign.Options
	wdsOpts  wds.Options
	planners map[string]assign.Planner
	sep      wds.Separator
	sc       wds.Scratch
	cands    []*core.Task
	rs       [][]*core.Task
	pool     []*core.Task
	t        layerTotals
}

func newLayerReplay(o assign.Options) *layerReplay {
	o.Parallelism = 1
	wo := o.WDS.WithDefaults()
	wo.Parallelism = 1
	return &layerReplay{opts: o, wdsOpts: wo, planners: map[string]assign.Planner{}}
}

func (lr *layerReplay) planner(kind string) assign.Planner {
	if p, ok := lr.planners[kind]; ok {
		return p
	}
	var p assign.Planner
	switch kind {
	case "search":
		p = &assign.Search{Opts: lr.opts}
	case "ssp":
		p = &assign.SSP{Opts: lr.opts, Samples: predict.DefaultSamples}
	case "greedy":
		p = &assign.Greedy{Opts: lr.opts}
	default:
		p = &assign.Match{Opts: lr.opts}
	}
	lr.planners[kind] = p
	return p
}

// replay runs one captured instant. Search and SSP instants are taken apart
// layer by layer — SSP once per demand scenario pool, as it searches — and
// then planned whole; Greedy and Match call none of those layers and are
// only planned. The search's share is the whole plan minus its separations.
func (lr *layerReplay) replay(log *spanLog, epoch int, in *instant) {
	root := log.begin("replay.instant", -1, epoch, trackReplay)
	var separate int64
	switch in.kind {
	case "search":
		separate = lr.layers(log, root, epoch, in.workers, in.tasks, in.now)
	case "ssp":
		k := scenarios(in.tasks)
		for s := 0; s < k; s++ {
			pool := in.tasks
			if k > 1 {
				pool = lr.pool[:0]
				for _, t := range in.tasks {
					if t.SampleBits == 0 || t.SampleBits&(1<<s) != 0 {
						pool = append(pool, t)
					}
				}
				lr.pool = pool
			}
			separate += lr.layers(log, root, epoch, in.workers, pool, in.now)
		}
	}
	p := lr.planner(in.kind)
	id := log.begin("assign.plan", root, epoch, trackReplay)
	p.Plan(in.workers, in.tasks, in.now)
	plan := log.end(id).Nanoseconds()
	switch pl := p.(type) {
	case *assign.Search:
		lr.t.nodes += int64(pl.NodesLastPlan)
	case *assign.SSP:
		lr.t.nodes += int64(pl.NodesLastPlan)
	}
	log.end(root)
	lr.t.instants++
	lr.t.planNS += plan
	lr.t.liveNS += in.liveNS
	lr.t.searchNS += plan - separate
}

// scenarios is the number of demand scenarios SSP plans for the pool: the
// sampler's count when any virtual task carries scenario bits, else one.
func scenarios(tasks []*core.Task) int {
	top := 0
	for _, t := range tasks {
		top = max(top, bits.Len64(t.SampleBits))
	}
	if top == 0 {
		return 1
	}
	return min(max(top, predict.DefaultSamples), 64)
}

// layers replays one pool through the spatial index, the per-worker
// reachability and sequence enumeration, the full separation, and the
// chordal fill-in of each top-level dependency component. It returns the
// separation's duration.
func (lr *layerReplay) layers(log *spanLog, parent, epoch int, ws []*core.Worker, ts []*core.Task, now float64) int64 {
	o := lr.wdsOpts
	t := &lr.t
	id := log.begin("spatial.index", parent, epoch, trackReplay)
	ix := spatial.NewIndex(ts, spatial.CellSizeForReach(ws))
	t.indexNS += log.end(id).Nanoseconds()

	id = log.begin("spatial.query", parent, epoch, trackReplay)
	for _, w := range ws {
		lr.cands = ix.AppendWithin(lr.cands[:0], w.Loc, w.Reach)
		t.candidates += int64(len(lr.cands))
	}
	t.queryNS += log.end(id).Nanoseconds()

	// The reachability span includes the index query it issues itself.
	lr.rs = slices.Grow(lr.rs[:0], len(ws))[:len(ws)]
	id = log.begin("wds.reach", parent, epoch, trackReplay)
	for i, w := range ws {
		lr.rs[i] = lr.sc.ReachableTasksIndexed(w, ix, now, o)
		t.reachable += int64(len(lr.rs[i]))
	}
	t.reachNS += log.end(id).Nanoseconds()

	id = log.begin("wds.seq", parent, epoch, trackReplay)
	for i, w := range ws {
		t.sequences += int64(len(lr.sc.MaximalValidSequences(w, lr.rs[i], now, o)))
	}
	t.seqNS += log.end(id).Nanoseconds()

	id = log.begin("wds.separate", parent, epoch, trackReplay)
	sep := lr.sep.Separate(ws, ts, now, o)
	separate := log.end(id).Nanoseconds()
	t.separateNS += separate
	g := sep.Graph
	t.edges += int64(g.Edges())
	t.components += int64(len(sep.Forest))
	for _, root := range sep.Forest {
		t.largest = max(t.largest, int64(root.Size()))
	}

	comps := g.Components(nil)
	id = log.begin("graphutil.fillin", parent, epoch, trackReplay)
	for _, comp := range comps {
		// Separate builds 1- and 2-vertex components directly, without
		// fill-in.
		if len(comp) < 3 {
			continue
		}
		h, _ := g.FillIn(comp)
		degree := 0
		for _, v := range comp {
			degree += g.Degree(v)
		}
		t.fillEdges += int64(h.Edges() - degree/2)
	}
	t.fillNS += log.end(id).Nanoseconds()
	return separate
}
