package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/dispatch"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/wire"
	"repro/internal/workload"
)

// spec is one benchmark workload: a scenario-atlas archetype at a density,
// replayed through the live dispatcher with one assignment method. A chaos
// archetype (one with an overload profile) runs under that profile's
// admission control and planner governor. README.md says why each exists.
type spec struct {
	Name      string
	Archetype string
	Scale     float64
	Method    datawa.Method
}

var specs = []spec{
	{Name: "spike-dta", Archetype: "event-spike", Scale: 3, Method: datawa.MethodDTA},
	{Name: "rush-greedy", Archetype: "rush-hour", Scale: 40, Method: datawa.MethodGreedy},
	{Name: "rush-ssp", Archetype: "rush-hour", Scale: 2, Method: datawa.MethodSSP},
	// Greedy, not DTA, heads the governor ladder here. Under DTA the tier
	// changes hinge on work-unit thresholds, so one perturbation demotes a
	// shard an epoch earlier than the next and skips a stretch of exact
	// search: six perturbations of one seed allocated 152 to 238 MB, and
	// epoch_p98_ms spread 24% over ten seeds even with three traces pooled
	// per run. Admission, deferral, shedding, the governor and the audit
	// are the same under either planner.
	{Name: "flood-governed", Archetype: "flash-flood", Scale: 5, Method: datawa.MethodGreedy},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Settings shared by every workload, the same as the scenario-atlas bench
// suite's defaults (internal/benchsuite).
const (
	shards   = 2
	step     = 2.0
	maxNodes = 4000
	// batchCap caps events per wire frame, as dispatch.LoadGen does.
	batchCap = 256
	// quiesceEpochs bounds the post-replay drain of a chaos workload.
	quiesceEpochs = 512
)

// parallelism is the planner fan-out: one goroutine per usable CPU, never
// more than the CPUs the host has.
func parallelism() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// tracesPerRun is how many differently perturbed copies of the archetype
// trace one run replays. The perturbation moves the heavy epochs' work
// chaotically — on spike-dta one trace's allocations spread 9% over ten
// seeds — so a run pools three, and its figures describe the regime rather
// than one draw of it.
const tracesPerRun = 3

// traceSeed is the perturbation seed of trace j of a run with the given
// seed; runs with different seeds share no trace.
func traceSeed(seed int64, j int) int64 { return seed*tracesPerRun + int64(j) }

// instance is one perturbed trace of a workload with the framework its
// replays share, and the dispatcher set-up built for its first replay.
type instance struct {
	spec   spec
	arch   scenario.Archetype
	sc     *datawa.Scenario
	fw     *datawa.Framework
	events []wire.Event
	next   *datawa.Dispatcher
}

// generate materializes the workload's trace: the archetype's own trace at
// the workload's density, perturbed by the seed. horizon > 0 shortens the
// trace (tests only).
func generate(s spec, seed int64, horizon float64) (*datawa.Scenario, scenario.Archetype, error) {
	arch, ok := scenario.Get(s.Archetype)
	if !ok {
		return nil, arch, fmt.Errorf("unknown archetype %q", s.Archetype)
	}
	c := arch.Scale(s.Scale)
	if horizon > 0 {
		c.Duration = horizon
	}
	sc := workload.Generate(c)
	perturb(sc, seed)
	return sc, arch, nil
}

// jitterKM is the spread of the normal offset perturb moves every worker
// and task by.
const jitterKM = 0.02

// perturb draws a distinct input from the archetype's regime. The archetype
// seed fixes the regime's structure — hotspot cells, pulse phases, the burst
// — and the benchmark seed moves every worker and task a little. Re-seeding
// the generator instead redraws the structure: on spike-dta, five seeds
// spread events_per_s by 20% and epoch_p98_ms by 50% (IQR over median), more
// than any bound can absorb. Times stay put: shifting publication by up to a
// second moved tasks across epoch boundaries and spread events_per_s by 20%
// again.
func perturb(sc *datawa.Scenario, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	region := sc.Config.Region
	move := func(p geo.Point) geo.Point {
		return region.Clamp(geo.Point{X: p.X + rng.NormFloat64()*jitterKM, Y: p.Y + rng.NormFloat64()*jitterKM})
	}
	for _, w := range sc.Workers {
		w.Loc = move(w.Loc)
	}
	for _, t := range sc.Tasks {
		t.Loc = move(t.Loc)
	}
}

// frameworkConfig mirrors the bench suite's framework settings; the model
// seed is the archetype's, so the benchmark seed changes only the trace.
func frameworkConfig(sc *datawa.Scenario) datawa.Config {
	c := sc.Config
	return datawa.Config{
		Region:   c.Region,
		GridRows: c.GridRows, GridCols: c.GridCols,
		Step: step, Seed: c.Seed,
		Parallelism:    parallelism(),
		MaxSearchNodes: maxNodes,
	}
}

// setup is the work setup_s times, for the first n traces of the run: trace
// generation, framework construction, demand training where the method
// forecasts, and one dispatcher per trace built through the public façade.
func setup(s spec, seed int64, horizon float64, n int) ([]*instance, error) {
	var (
		ins []*instance
		fw  *datawa.Framework
	)
	for j := range n {
		sc, arch, err := generate(s, traceSeed(seed, j), horizon)
		if err != nil {
			return nil, err
		}
		if fw == nil {
			// The perturbation leaves the region, the grid and the demand
			// history alone, so one framework, with one trained demand
			// model, serves every trace.
			fw = datawa.New(frameworkConfig(sc))
			if s.Method == datawa.MethodSSP {
				if err := fw.TrainDemand(sc.History); err != nil {
					return nil, fmt.Errorf("train demand: %w", err)
				}
			}
		}
		in := &instance{spec: s, arch: arch, sc: sc, fw: fw, events: wireEvents(sc)}
		if in.next, err = in.dispatcher(); err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// dispatcher builds a fresh dispatcher through the public façade.
func (in *instance) dispatcher() (*datawa.Dispatcher, error) {
	d, err := in.fw.NewDispatcher(in.spec.Method, in.dispatchConfig())
	if err != nil {
		return nil, fmt.Errorf("new dispatcher: %w", err)
	}
	return d, nil
}

func (in *instance) overload() bool { return in.arch.Overload != nil }

// dispatchConfig is the live-path configuration: two shards, automatic
// halo, and, on a chaos archetype, its admission and governor profile with
// the work-unit cost function, so tier changes replay identically on every
// host. The ledger there is sized to keep every task's chain for the audit.
func (in *instance) dispatchConfig() datawa.DispatchConfig {
	dc := datawa.DispatchConfig{Shards: shards, Step: step, Now: in.sc.T0}
	if p := in.arch.Overload; p != nil {
		dc.Admission = datawa.AdmissionConfig{
			MaxOpenTasks:       p.MaxOpenTasks,
			MaxSubmitsPerEpoch: p.MaxSubmitsPerEpoch,
			DeferSlack:         p.DeferSlack,
		}
		dc.Governor = datawa.GovernorConfig{
			Budget: p.BudgetUnits, Window: p.Window, Dwell: p.Dwell,
			Cost: func(_ int, _ time.Duration, workers, open int) float64 {
				return float64(workers * open)
			},
		}
		dc.Obs.LedgerTasks = len(in.sc.Tasks) + 1024
	}
	return dc
}

// wireEvents converts the trace to wire events once, in set-up: the
// conversion is the benchmark's input, not work the service does.
func wireEvents(sc *datawa.Scenario) []wire.Event {
	evs := sc.Events()
	out := make([]wire.Event, len(evs))
	for i, ev := range evs {
		switch ev.Kind {
		case workload.WorkerOnline:
			w := ev.Worker
			out[i] = wire.Event{Time: ev.Time, Kind: wire.WorkerOnline, ID: int64(w.ID),
				X: w.Loc.X, Y: w.Loc.Y, Reach: w.Reach, On: w.On, Off: w.Off}
		case workload.TaskSubmit:
			t := ev.Task
			out[i] = wire.Event{Time: ev.Time, Kind: wire.TaskSubmit, ID: int64(t.ID),
				X: t.Loc.X, Y: t.Loc.Y, Pub: t.Pub, Exp: t.Exp}
		}
	}
	return out
}

// replayResult is one closed-loop replay of the trace.
type replayResult struct {
	wall  time.Duration
	ticks []time.Duration
	// allocBytes is the heap allocated during the replay; heapPeak the
	// largest live heap seen between epochs.
	allocBytes uint64
	heapPeak   uint64
	gcCycles   uint32
	gcPause    time.Duration
	// failed counts events rejected at ingest or unroutable, plus one per
	// violated end-of-run check; problems says why.
	failed   int64
	problems []string
	met      dispatch.Metrics
	// quiesced is the number of drain epochs a chaos workload ran after the
	// horizon (not part of wall or ticks).
	quiesced int
}

const heapLive = "/gc/heap/live:bytes"

// replay drives d through the whole trace in a closed loop, the shape of
// dispatch.LoadGen in stream mode: each batch of due events is wire-encoded,
// decoded and handed to IngestBatch, and Tick runs exactly when the next
// event falls due, then on to the horizon. A slow epoch delays the events
// behind it instead of queueing them, so plans never depend on wall time.
// With tr non-nil every call is also recorded as a span.
func replay(d *datawa.Dispatcher, in *instance, tr *tracer) replayResult {
	var (
		r       replayResult
		frame   []byte
		decoded = make([]wire.Event, 0, batchCap)
		sample  = []metrics.Sample{{Name: heapLive}}
		m0, m1  runtime.MemStats
		err     error
	)
	evs, t1 := in.events, in.sc.T1
	tick := func() {
		if tr != nil {
			r.ticks = append(r.ticks, tr.tick(d))
		} else {
			t0 := time.Now()
			d.Tick()
			r.ticks = append(r.ticks, time.Since(t0))
		}
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			r.heapPeak = max(r.heapPeak, sample[0].Value.Uint64())
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < len(evs); {
		for d.Now() < evs[i].Time {
			tick()
		}
		now := d.Now()
		j := i
		for j < len(evs) && j-i < batchCap && evs[j].Time <= now {
			j++
		}
		batch := evs[i:j]
		i = j
		var enc, dec, ing int
		if tr != nil {
			enc = tr.begin("wire.encode")
		}
		if frame, err = wire.AppendFrame(frame[:0], batch); err != nil {
			r.fail(int64(len(batch)), "encode: %v", err)
			continue
		}
		if tr != nil {
			tr.endWire(enc, len(frame), &tr.encode)
			dec = tr.begin("wire.decode")
		}
		if decoded, _, err = wire.DecodeFrame(frame, decoded[:0]); err != nil {
			r.fail(int64(len(batch)), "decode: %v", err)
			continue
		}
		if tr != nil {
			tr.endWire(dec, 0, &tr.decode)
			ing = tr.begin("dispatch.ingest")
		}
		if _, rej := d.IngestBatch(decoded); rej > 0 {
			r.fail(int64(rej), "%d events rejected at ingest", rej)
		}
		if tr != nil {
			tr.endWire(ing, 0, &tr.ingest)
		}
	}
	for d.Now() < t1 {
		tick()
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if tr != nil {
		tr.off = true
	}
	if in.overload() {
		e0 := d.Snapshot().Epochs
		if !d.Quiesce(quiesceEpochs) {
			r.fail(1, "did not quiesce within %d epochs", quiesceEpochs)
		}
		r.quiesced = d.Snapshot().Epochs - e0
	}
	r.met = d.Snapshot()
	r.check(d, in)
	return r
}

func (r *replayResult) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check is the end-of-replay correctness gate: no unroutable events, no more
// tasks assigned than submitted, and on a chaos workload exact task
// conservation after the drain plus a clean lifecycle-ledger audit.
func (r *replayResult) check(d *datawa.Dispatcher, in *instance) {
	m := r.met
	tasks := len(in.sc.Tasks)
	if m.Unroutable != 0 {
		r.fail(m.Unroutable, "%d unroutable events", m.Unroutable)
	}
	if m.Assigned > tasks {
		r.fail(1, "assigned %d of %d tasks", m.Assigned, tasks)
	}
	if !in.overload() {
		return
	}
	if terminal := m.Assigned + m.Expired + m.Cancelled + int(m.Shed); terminal != tasks {
		r.fail(1, "task conservation: assigned %d + expired %d + cancelled %d + shed %d = %d, want %d",
			m.Assigned, m.Expired, m.Cancelled, m.Shed, terminal, tasks)
	}
	if issues, evictions := d.LedgerAudit(); len(issues) != 0 || evictions != 0 {
		r.fail(1, "ledger audit: %d issues, %d evictions: %v", len(issues), evictions, issues)
	}
}
