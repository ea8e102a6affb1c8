// Command perfbench is the repository's benchmark. It replays one seeded
// scenario-atlas workload through the live sharded dispatcher in a closed
// loop, checks the outputs, and prints the result as the last line of
// standard output: one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics of a separate traced run (--trace 1). README.md
// describes the workloads, the metrics and the layer map.
//
//	bash perfbench/run.sh --workload spike-dta --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/dispatch"
)

// A run sets the workload up at least minSetups times and until setupBudget
// has passed, at most maxSetups times; setup_s is the median. A cheap set-up
// times bimodally (about 6.5 or 9.5 ms on spike-dta), so the median of a few
// set-ups jumps between the modes from run to run; the median of 200 holds
// within 4%.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

// traceDir receives the Chrome trace of each traced run, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the trace perturbation")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var (
		res  result
		host hostRecord
		err  error
	)
	if *trace == 1 {
		res, host, err = runTraced(sp, *seed)
	} else {
		res, host, err = runUntraced(sp, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.Name, err)
		return 1
	}
	host.fill(sp, *seed)
	for _, p := range host.Problems {
		fmt.Fprintf(stderr, "perfbench: %s: correctness: %s\n", sp.Name, p)
	}
	hostLine, err := json.Marshal(map[string]hostRecord{"host": host})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", hostLine, line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostRecord is printed on the line before the result: what was measured,
// where, and what the correctness gate saw.
type hostRecord struct {
	Workload   string   `json:"workload"`
	Archetype  string   `json:"archetype"`
	Density    float64  `json:"density"`
	Method     string   `json:"method"`
	Seed       int64    `json:"seed"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	CPU        string   `json:"cpu"`
	Go         string   `json:"go"`
	Events     int      `json:"events"`
	Tasks      int      `json:"tasks"`
	Assigned   int      `json:"assigned"`
	Replays    int      `json:"replays"`
	Epochs     int      `json:"epoch_samples"`
	SetupRuns  *spread  `json:"setup_runs_s,omitempty"`
	ReplayWall *spread  `json:"replay_wall_s,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
	Problems   []string `json:"problems,omitempty"`
}

// spread summarizes repeated timings in the host record.
type spread struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func spreadOf(xs []float64) *spread {
	return &spread{N: len(xs), Min: slices.Min(xs), Median: median(xs), Max: slices.Max(xs)}
}

func (h *hostRecord) fill(sp spec, seed int64) {
	h.Workload, h.Archetype, h.Density, h.Method = sp.Name, sp.Archetype, sp.Scale, string(sp.Method)
	h.Seed = seed
	h.GOMAXPROCS, h.NProc = runtime.GOMAXPROCS(0), runtime.NumCPU()
	h.CPU, h.Go = cpuModel(), runtime.Version()
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runUntraced measures the end-to-end metrics: set the workload up several
// times, then replay its traces in rounds, each replay on a fresh
// façade-built dispatcher, until another round would overrun the budget. A
// run makes at least one round.
func runUntraced(sp spec, seed int64, budget time.Duration) (result, hostRecord, error) {
	var (
		host   hostRecord
		ins    []*instance
		setups []float64
		err    error
	)
	for start := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < setupBudget); {
		// Each set-up starts from a collected heap, not from the garbage
		// of the one before.
		runtime.GC()
		t0 := time.Now()
		if ins, err = setup(sp, seed, 0, tracesPerRun); err != nil {
			return result{}, host, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	host.SetupRuns = spreadOf(setups)

	reps := make([][]replayResult, len(ins))
	start := time.Now()
	for round := 1; ; round++ {
		for i, in := range ins {
			d := in.next
			in.next = nil
			if d == nil {
				if d, err = in.dispatcher(); err != nil {
					return result{}, host, err
				}
			}
			reps[i] = append(reps[i], replay(d, in, nil))
		}
		spent := time.Since(start)
		if spent+spent/time.Duration(round) > budget {
			break
		}
	}

	var (
		res                     result
		ticks, allocs, peaks    []float64
		walls                   []float64
		wall                    float64
		events, tasks, assigned int
	)
	for i, in := range ins {
		g := gate(reps[i], in, &host)
		res.Attempted += g.Attempted
		res.Failed += g.Failed
		events += len(in.events)
		tasks += len(in.sc.Tasks)
		assigned += reps[i][0].met.Assigned

		epochs := epochMedians(reps[i])
		ticks = append(ticks, epochs...)
		// The trace's wall time is rebuilt from medians too: the median
		// Tick time of every epoch plus the median time spent between
		// Ticks (wire codec and ingest).
		var between, alloc, peak []float64
		for _, r := range reps[i] {
			walls = append(walls, r.wall.Seconds())
			var tickSum time.Duration
			for _, t := range r.ticks {
				tickSum += t
			}
			between = append(between, (r.wall - tickSum).Seconds())
			alloc = append(alloc, float64(r.allocBytes)/1e6)
			peak = append(peak, float64(r.heapPeak)/1e6)
		}
		wall += median(between)
		for _, t := range epochs {
			wall += t / 1e3
		}
		allocs = append(allocs, median(alloc))
		peaks = append(peaks, median(peak))
	}
	host.ReplayWall = spreadOf(walls)
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"events_per_s":    {float64(events) / wall, "events/s"},
		"epoch_p50_ms":    {median(ticks), "ms"},
		"epoch_p98_ms":    {percentile(ticks, 0.98), "ms"},
		"assignment_rate": {float64(assigned) / float64(tasks), "fraction"},
		"setup_s":         {median(setups), "s"},
		"alloc_mb":        {mean(allocs), "MB"},
		"heap_peak_mb":    {mean(peaks), "MB"},
	}
	return res, host, nil
}

// epochMedians returns, for each epoch of the trace, the median of its Tick
// time over the replays, in milliseconds. Every replay runs the same epochs
// with the same plans, so the median discards time another process took
// from one replay without smoothing the epochs' own spread.
func epochMedians(reps []replayResult) []float64 {
	out := make([]float64, len(reps[0].ticks))
	col := make([]float64, 0, len(reps))
	for e := range out {
		col = col[:0]
		for _, r := range reps {
			// A replay that ran other epochs fails the gate; skip it
			// here rather than index past its end.
			if e < len(r.ticks) {
				col = append(col, float64(r.ticks[e].Nanoseconds())/1e6)
			}
		}
		out[e] = median(col)
	}
	return out
}

// gate folds the correctness checks of one trace's replays into a result
// and the host record: every replay must pass its own checks, run the same
// epochs and assign exactly as many tasks as the first.
func gate(reps []replayResult, inst *instance, host *hostRecord) result {
	res := result{}
	for i, r := range reps {
		res.Attempted += int64(len(inst.events))
		res.Failed += r.failed
		host.Problems = append(host.Problems, r.problems...)
		if r.met.Assigned != reps[0].met.Assigned || len(r.ticks) != len(reps[0].ticks) {
			res.Failed++
			host.Problems = append(host.Problems, fmt.Sprintf("replay %d assigned %d tasks in %d epochs, replay 0 assigned %d in %d",
				i, r.met.Assigned, len(r.ticks), reps[0].met.Assigned, len(reps[0].ticks)))
		}
	}
	res.Correct = res.Failed == 0
	host.Events += len(inst.events)
	host.Tasks += len(inst.sc.Tasks)
	host.Assigned += reps[0].met.Assigned
	host.Replays += len(reps)
	host.Epochs += len(reps[0].ticks)
	return res
}

// runTraced measures the per-layer metrics on the run's first trace: one
// untraced replay through the façade, then one replay through a mirrored
// configuration whose planners and forecaster are wrapped in timing
// decorators, with every planning instant replayed serially layer by layer. The two replays must assign the
// same tasks, which shows the mirror and the decorators changed no plan.
func runTraced(sp spec, seed int64) (result, hostRecord, error) {
	var host hostRecord
	ins, err := setup(sp, seed, 0, 1)
	if err != nil {
		return result{}, host, err
	}
	inst := ins[0]
	base, traced, tr, train, err := tracedPair(inst, inst.next)
	if err != nil {
		return result{}, host, err
	}
	res := gate([]replayResult{base, traced}, inst, &host)
	res.Metrics = layerMetrics(inst, base, traced, tr, train)

	out, err := tr.log.chromeTrace()
	if err != nil {
		return result{}, host, err
	}
	host.TraceFile = filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", sp.Name, seed))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, host, err
	}
	if err := os.WriteFile(host.TraceFile, out, 0o644); err != nil {
		return result{}, host, err
	}
	return res, host, nil
}

// tracedPair replays the trace untraced through d, then traced through the
// mirrored configuration. It also returns the demand training time of the
// mirror.
func tracedPair(inst *instance, d *dispatch.Dispatcher) (base, traced replayResult, tr *tracer, train time.Duration, err error) {
	base = replay(d, inst, nil)
	tr = newTracer(plannerOptions(parallelism()))
	td, train, err := tracedDispatcher(inst, tr)
	if err != nil {
		return base, traced, nil, 0, err
	}
	traced = replay(td, inst, tr)
	return base, traced, tr, train, nil
}

// layerMetrics computes the per-layer metrics of a traced run. base is the
// untraced replay the overhead ratio divides by.
func layerMetrics(inst *instance, base, traced replayResult, tr *tracer, train time.Duration) map[string]metric {
	events := float64(len(inst.events))
	m := traced.met
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	perEvent := func(ns int64) float64 { return float64(ns) / events }

	// Tick self time: each Tick's duration minus the union of its planner
	// and forecaster spans (shard planners overlap one another).
	self, covered := selfTimes(tr.log.spans)
	var tickNS, tickSelf, tickCovered int64
	for i, s := range tr.log.spans {
		if s.name == "dispatch.tick" {
			tickNS += s.dur()
			tickSelf += self[i]
			tickCovered += covered[i]
		}
	}

	plans := toMS(tr.planNS)
	var planTotal float64
	for _, p := range plans {
		planTotal += p
	}
	forecasts := toMS(tr.forecasts)
	var forecastTotal float64
	for _, f := range forecasts {
		forecastTotal += f
	}
	var poolW, poolT, poolTMax int
	for i := range tr.poolW {
		poolW += tr.poolW[i]
		poolT += tr.poolT[i]
		poolTMax = max(poolTMax, tr.poolT[i])
	}
	lt := tr.layers.t
	tracedRate := events / (traced.wall - tr.replayWall).Seconds()
	baseRate := events / base.wall.Seconds()

	return map[string]metric{
		"wire.encode_ns_per_event":       {perEvent(tr.encode.ns), "ns"},
		"wire.decode_ns_per_event":       {perEvent(tr.decode.ns), "ns"},
		"wire.bytes_per_event":           {float64(tr.encode.bytes) / events, "bytes"},
		"dispatch.ingest_ns_per_event":   {perEvent(tr.ingest.ns), "ns"},
		"dispatch.backlog_max":           {float64(tr.backlogMax), "events"},
		"dispatch.tick_ms_total":         {ms(tickNS), "ms"},
		"dispatch.tick_self_ms":          {ms(tickSelf), "ms"},
		"dispatch.tick_children_ms":      {ms(tickCovered), "ms"},
		"dispatch.incremental_hits":      {float64(m.IncrementalHits), "count"},
		"dispatch.incremental_hit_ratio": {ratio(float64(m.IncrementalHits), float64(m.IncrementalHits+m.ComponentsReplanned)), "fraction"},
		"dispatch.ghost_copies":          {float64(m.GhostCopies), "count"},
		"dispatch.commit_conflicts":      {float64(m.CommitConflicts), "count"},
		"dispatch.retractions":           {float64(m.Retractions), "count"},
		"dispatch.shed":                  {float64(m.Shed), "count"},
		"dispatch.deferred":              {float64(m.Deferred), "count"},
		"dispatch.tier_demotions":        {float64(m.TierDemotions), "count"},
		"dispatch.tier_promotions":       {float64(m.TierPromotions), "count"},
		"dispatch.quiesce_epochs":        {float64(traced.quiesced), "count"},

		"predict.train_s":           {train.Seconds(), "s"},
		"predict.forecast_calls":    {float64(len(forecasts)), "count"},
		"predict.forecast_ms_total": {forecastTotal, "ms"},
		"predict.forecast_ms_p50":   {percentile(forecasts, 0.5), "ms"},
		"predict.virtuals_per_call": {ratio(float64(tr.virtuals), float64(len(forecasts))), "tasks"},

		"assign.plan_calls":        {float64(len(plans)), "count"},
		"assign.plan_ms_total":     {planTotal, "ms"},
		"assign.plan_ms_p50":       {percentile(plans, 0.5), "ms"},
		"assign.plan_ms_p98":       {percentile(plans, 0.98), "ms"},
		"assign.pool_workers_mean": {ratio(float64(poolW), float64(len(plans))), "workers"},
		"assign.pool_tasks_mean":   {ratio(float64(poolT), float64(len(plans))), "tasks"},
		"assign.pool_tasks_max":    {float64(poolTMax), "tasks"},

		"spatial.index_ms":     {ms(lt.indexNS), "ms"},
		"spatial.query_ms":     {ms(lt.queryNS), "ms"},
		"spatial.candidates":   {float64(lt.candidates), "count"},
		"spatial.useful_ratio": {ratio(float64(lt.reachable), float64(lt.candidates)), "fraction"},

		"wds.reach_ms":          {ms(lt.reachNS), "ms"},
		"wds.reachable_pairs":   {float64(lt.reachable), "count"},
		"wds.seq_ms":            {ms(lt.seqNS), "ms"},
		"wds.sequences":         {float64(lt.sequences), "count"},
		"wds.separate_ms":       {ms(lt.separateNS), "ms"},
		"wds.graph_tree_ms":     {ms(lt.separateNS - lt.indexNS - lt.reachNS - lt.seqNS), "ms"},
		"wds.graph_edges":       {float64(lt.edges), "count"},
		"wds.components":        {float64(lt.components), "count"},
		"wds.largest_component": {float64(lt.largest), "workers"},

		"graphutil.fillin_ms":  {ms(lt.fillNS), "ms"},
		"graphutil.fill_edges": {float64(lt.fillEdges), "count"},

		"assign.search_ms":       {ms(lt.searchNS), "ms"},
		"assign.search_nodes":    {float64(lt.nodes), "count"},
		"assign.replay_instants": {float64(lt.instants), "count"},
		"assign.replay_coverage": {ratio(float64(lt.planNS), float64(lt.liveNS)), "fraction"},

		"runtime.gc_cycles":   {float64(base.gcCycles), "count"},
		"runtime.gc_pause_ms": {float64(base.gcPause.Nanoseconds()) / 1e6, "ms"},

		"trace.overhead_ratio": {ratio(tracedRate, baseRate), "fraction"},
	}
}

func toMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}
