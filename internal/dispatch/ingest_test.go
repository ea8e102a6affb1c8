package dispatch

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/workload"
)

// replayShape replays the scenario trace with explicit control over the
// ingest transport, returning the final snapshot.
func replayShape(sc *workload.Scenario, parallelism int, stream bool, batch int) Metrics {
	d := New(Config{
		Shards:      4,
		Grid:        sc.Grid,
		Step:        2,
		Now:         sc.T0,
		Travel:      travel,
		NewPlanner:  searchFactory(),
		Parallelism: parallelism,
	})
	return LoadGen{Events: sc.Events(), T1: sc.T1, Stream: stream, Batch: batch}.Run(d).Metrics
}

// TestQueueSpillEquivalence drives the ingest rings through the full-ring
// spill-to-pending branch: a queue sized far below the burst forces the
// producer past its lane into the pending heap, and the outcome must still
// match an amply-sized queue exactly. QueueSize 8 clamps each lane to its
// 64-slot minimum, so a 500-event burst overflows by ~8x. The burst either
// lands in one shard's band (one lane spills) or alternates between both
// bands (both lanes spill, and each spill drains the other lane too).
func TestQueueSpillEquivalence(t *testing.T) {
	hot := geo.Point{X: 3}       // cell 1: shard 0's band
	far := geo.Point{X: 3, Y: 5} // cell 7: shard 1's band
	run := func(bothLanes bool, queueSize int) Metrics {
		d := New(Config{
			Shards: 2, Grid: geo.NewGrid(geo.Rect{MaxX: 6, MaxY: 6}, 3, 3), Step: 1,
			Travel: travel, NewPlanner: greedyFactory(), QueueSize: queueSize,
		})
		if d.shardOf(hot) == d.shardOf(far) {
			t.Fatal("burst locations share a shard; the two-lane case would spill one lane")
		}
		d.Ingest(Event{Time: 0, Kind: KindWorkerOnline,
			Worker: &core.Worker{ID: 1, Loc: hot, Reach: 1, On: 0, Off: 1000}})
		if bothLanes {
			d.Ingest(Event{Time: 0, Kind: KindWorkerOnline,
				Worker: &core.Worker{ID: 2, Loc: far, Reach: 1, On: 0, Off: 1000}})
		}
		const n = 500
		for i := 0; i < n; i++ {
			loc := hot
			if bothLanes && i%2 == 1 {
				loc = far
			}
			d.Ingest(Event{Time: 0, Kind: KindTaskSubmit,
				Task: &core.Task{ID: i + 1, Loc: loc, Pub: 0, Exp: 40, Cell: -1}})
		}
		if !d.Quiesce(1000) {
			t.Fatal("dispatcher failed to quiesce")
		}
		return d.Snapshot()
	}
	for _, tc := range []struct {
		name      string
		bothLanes bool
	}{
		{"one-lane", false},
		{"both-lanes", true},
	} {
		ref := digest(run(tc.bothLanes, 4096))
		if got := digest(run(tc.bothLanes, 8)); got != ref {
			t.Fatalf("%s spill diverged from the ample queue:\n got %s\nwant %s", tc.name, got, ref)
		}
	}
}

// TestConcurrentProducersDeterministic is the concurrent half of the queue
// property test: randomized producer interleavings must not leak into the
// outcome. Each event carries a globally unique time, so the pending heap's
// (Time, seq) order is a pure function of the trace regardless of which
// producer's push lands first — and the post-Quiesce snapshot must equal the
// sequential single-producer replay of the same stream, run after run. The
// queue is sized to force concurrent spill-to-pending on top of ring pushes.
func TestConcurrentProducersDeterministic(t *testing.T) {
	sc := testScenario(t)
	base := sc.Events()
	events := make([]workload.Event, len(base))
	copy(events, base)
	for i := range events {
		// Strictly increasing jitter keeps the trace sorted while making
		// every instant unique; 1e-6 is far below the epoch step, so epoch
		// bucketing is unchanged.
		events[i].Time += float64(i) * 1e-6
	}
	run := func(producers int, queueSize int) Metrics {
		d := New(Config{
			Shards: 4, Grid: sc.Grid, Step: 2, Now: sc.T0,
			Travel: travel, NewPlanner: searchFactory(), QueueSize: queueSize,
		})
		if producers <= 1 {
			for _, ev := range events {
				d.Ingest(traceEvent(ev))
			}
		} else {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := p; i < len(events); i += producers {
						d.Ingest(traceEvent(events[i]))
					}
				}(p)
			}
			wg.Wait()
		}
		if !d.Quiesce(10000) {
			t.Fatal("dispatcher failed to quiesce")
		}
		return d.Snapshot()
	}
	ref := digest(run(1, 0))
	for run2 := 0; run2 < 2; run2++ {
		for _, producers := range []int{2, 4, 8} {
			got := digest(run(producers, 64))
			if got != ref {
				t.Fatalf("run %d, %d producers: concurrent ingest diverged from the sequential replay:\n got %s\nwant %s",
					run2, producers, got, ref)
			}
		}
	}
}

// traceEvent converts a workload trace event to a dispatcher ingest event.
func traceEvent(ev workload.Event) Event {
	switch ev.Kind {
	case workload.WorkerOnline:
		return Event{Time: ev.Time, Kind: KindWorkerOnline, Worker: ev.Worker}
	case workload.TaskSubmit:
		return Event{Time: ev.Time, Kind: KindTaskSubmit, Task: ev.Task}
	}
	panic(fmt.Sprintf("unknown trace event kind %v", ev.Kind))
}

// TestTransportEquivalence pins determinism across transports: the batched
// binary-stream replay (encode → frame → decode → IngestBatch) must produce
// snapshots byte-identical to the per-event path at every parallelism level
// and batch size, including single-event frames.
func TestTransportEquivalence(t *testing.T) {
	sc := testScenario(t)
	ref := digest(replayShape(sc, 1, false, 0))
	for _, parallelism := range []int{1, 4, 0} {
		for _, batch := range []int{1, 256} {
			got := digest(replayShape(sc, parallelism, true, batch))
			if got != ref {
				t.Fatalf("parallelism %d batch %d: stream transport diverged:\n got %s\nwant %s",
					parallelism, batch, got, ref)
			}
		}
	}
}

// TestLoadGenStreamSustains25k is the raised throughput acceptance bar: the
// binary-stream transport must sustain at least 25k events per second on the
// DiDi-scaled trace, planning included — 25x the per-event floor pinned by
// TestLoadGenSustainsDiDiRate when the ingest path was one HTTP/JSON request
// per event.
func TestLoadGenStreamSustains25k(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	if raceEnabled {
		t.Skip("wall-clock throughput floor is meaningless under the race detector")
	}
	cfg := workload.DiDi().Scaled(0.1)
	cfg.HistoryDuration = 0
	sc := workload.Generate(cfg)
	d := New(Config{
		Shards:     4,
		Grid:       sc.Grid,
		Step:       2,
		Now:        sc.T0,
		Travel:     travel,
		NewPlanner: greedyFactory(),
	})
	res := LoadGen{Events: sc.Events(), T1: sc.T1, Stream: true}.Run(d)
	if res.Events < 500 {
		t.Fatalf("trace too small to be meaningful: %d events", res.Events)
	}
	if res.AchievedRate < 25000 {
		t.Fatalf("achieved %.0f events/sec over %d events (%v wall), want ≥ 25000",
			res.AchievedRate, res.Events, res.Wall)
	}
	if res.Metrics.Assigned == 0 {
		t.Fatal("load run assigned nothing; harness is not exercising planning")
	}
}
