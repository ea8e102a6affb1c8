package main

import (
	"slices"
	"testing"

	"repro"
	"repro/internal/assign"
	"repro/internal/core"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "tick", start: 0, end: 100, parent: -1},
		// Two shard plans overlapping on [30, 50), and a forecast that
		// runs past the tick's end: the union inside the tick is
		// [10, 70) ∪ [90, 100) = 70.
		{name: "plan0", start: 10, end: 50, parent: 0},
		{name: "plan1", start: 30, end: 70, parent: 0},
		{name: "forecast", start: 90, end: 120, parent: 0},
		// A nested child counts toward its own parent only.
		{name: "inner", start: 12, end: 20, parent: 1},
	}
	self, covered := selfTimes(spans)
	if covered[0] != 70 || self[0] != 30 {
		t.Fatalf("tick: covered %d self %d, want 70 and 30", covered[0], self[0])
	}
	if self[1] != 32 || self[2] != 40 || self[4] != 8 {
		t.Fatalf("children self times %v, want plan0 32, plan1 40, inner 8", self)
	}
	for i, s := range spans {
		if self[i]+covered[i] != s.dur() {
			t.Errorf("%s: self %d + covered %d != duration %d", s.name, self[i], covered[i], s.dur())
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{5, 5}}, 0},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{0, 10}, {2, 4}, {3, 12}}, 12},
		{[]interval{{20, 30}, {0, 10}}, 20},
	} {
		if got := unionLen(slices.Clone(c.iv)); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// capturedInstant returns a dense planning instant from the spike workload.
func capturedInstant(t *testing.T) ([]*core.Worker, []*core.Task, float64) {
	t.Helper()
	sc, _, err := generate(specs[0], 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := sc.T0 + 0.55*(sc.T1-sc.T0) // the burst
	var ws []*core.Worker
	for _, w := range sc.Workers {
		if w.Available(now) {
			ws = append(ws, w)
		}
	}
	var ts []*core.Task
	for _, s := range sc.Tasks {
		if s.Pub <= now && s.Exp > now {
			ts = append(ts, s)
		}
	}
	if len(ws) == 0 || len(ts) == 0 {
		t.Fatalf("empty instant: %d workers, %d tasks", len(ws), len(ts))
	}
	return ws, ts, now
}

func planKey(p core.Plan) [][]int {
	out := make([][]int, len(p))
	for i, a := range p {
		out[i] = append(out[i], a.Worker.ID)
		for _, s := range a.Seq {
			out[i] = append(out[i], s.ID)
		}
	}
	return out
}

func TestTimedPlannerIsTransparent(t *testing.T) {
	ws, ts, now := capturedInstant(t)
	opts := plannerOptions(1)
	want := planKey((&assign.Search{Opts: opts}).Plan(ws, ts, now))

	tr := newTracer(opts)
	inner := &assign.Search{Opts: opts}
	p := &timedPlanner{inner: inner, tr: tr}
	p.SetParallelism(3)
	if inner.Opts.Parallelism != 3 {
		t.Fatalf("SetParallelism not forwarded: inner parallelism %d", inner.Opts.Parallelism)
	}
	got := planKey(p.Plan(ws, ts, now))
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("decorated plan differs:\n got %v\nwant %v", got, want)
	}
	if len(tr.pending) != 1 || tr.pending[0].kind != "search" || len(tr.pending[0].tasks) != len(ts) {
		t.Fatalf("instant not captured: %+v", tr.pending)
	}
	// The captured copy must be independent of the live pool.
	tr.pending[0].tasks[0].Exp = -1
	if ts[0].Exp == -1 {
		t.Fatal("capture aliases the live tasks")
	}
}

func TestLayerReplayCoversThePlan(t *testing.T) {
	ws, ts, now := capturedInstant(t)
	tr := newTracer(plannerOptions(1))
	in := capture(ws, ts, now)
	in.kind, in.liveNS = "search", 1
	tr.layers.replay(tr.log, 0, in)
	lt := tr.layers.t
	if lt.instants != 1 || lt.planNS <= 0 || lt.separateNS <= 0 || lt.reachable <= 0 {
		t.Fatalf("layer replay recorded nothing: %+v", lt)
	}
	if lt.searchNS != lt.planNS-lt.separateNS {
		t.Fatalf("search %d != plan %d - separate %d", lt.searchNS, lt.planNS, lt.separateNS)
	}
	if lt.reachable > lt.candidates {
		t.Fatalf("reachable %d exceeds candidates %d", lt.reachable, lt.candidates)
	}
}

// TestWorkloadsPassTheGate replays every workload on a short, thinned trace
// through the façade and through the traced mirror, and requires both to
// pass the correctness gate and to assign the same tasks.
func TestWorkloadsPassTheGate(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			small := sp
			small.Scale = min(sp.Scale, 2) / 4
			ins, err := setup(small, 3, 240, 1)
			if err != nil {
				t.Fatal(err)
			}
			inst := ins[0]
			base, traced, tr, _, err := tracedPair(inst, inst.next)
			if err != nil {
				t.Fatal(err)
			}
			var host hostRecord
			res := gate([]replayResult{base, traced}, inst, &host)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("gate failed: %+v problems %v", res, host.Problems)
			}
			if base.met.Assigned == 0 {
				t.Fatal("nothing assigned")
			}
			if len(tr.planNS) == 0 || tr.layers.t.instants != len(tr.planNS) {
				t.Fatalf("%d plan calls, %d replayed instants", len(tr.planNS), tr.layers.t.instants)
			}
			if sp.Method == datawa.MethodSSP && len(tr.forecasts) == 0 {
				t.Fatal("SSP workload never forecast")
			}
		})
	}
}
