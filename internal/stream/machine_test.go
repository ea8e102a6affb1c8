package stream

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
)

// machineWith returns an empty machine running the exact search planner.
func machineWith(fixed bool) *Machine {
	return NewMachine(MachineConfig{Planner: searchPlanner(), Fixed: fixed, Travel: travel})
}

func TestMachineWorkerDepartsMidMotionCommitted(t *testing.T) {
	// The worker commits to a task and its window ends mid-travel: it must
	// stay active until arrival (validity guaranteed completion before off
	// at commit time), and the assignment stands.
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 100), 0)
	m.AddTask(task(1, 0.5, 0, 0, 90), 0)
	m.Step(0) // commit: travel 50 s, arrive 50 < min(90, 100)
	if st := m.Stats(); st.Assigned != 1 {
		t.Fatalf("assigned = %d, want 1", st.Assigned)
	}
	// Shrink the window below the current clock while the worker is moving.
	m.RemoveWorker(1, 10)
	m.Step(20)
	if wp, ok := m.PlanOf(1); !ok || wp.Committed != 1 || !wp.Moving {
		t.Fatalf("committed worker evicted mid-motion: %+v ok=%v", wp, ok)
	}
	// On arrival the motion completes; the worker departs at the next step.
	m.Step(50)
	m.Step(51)
	if _, ok := m.PlanOf(1); ok {
		t.Fatal("worker should depart after completing its committed task")
	}
	if st := m.Stats(); st.Assigned != 1 || st.Expired != 0 {
		t.Fatalf("stats after departure: %+v", st)
	}
}

func TestMachineWorkerDepartsMidReposition(t *testing.T) {
	// A worker repositioning toward predicted demand is interruptible: when
	// its window ends mid-motion it leaves immediately, and the virtual
	// target is never counted.
	v := task(-1, 0.8, 0, 0, 500)
	v.Virtual = true
	m := NewMachine(MachineConfig{
		Planner:  searchPlanner(),
		Travel:   travel,
		Forecast: &stubForecaster{tasks: []*core.Task{v}, span: 1000},
	})
	m.AddWorker(worker(1, 0, 0, 1, 0, 100), 0)
	m.Step(0)
	if st := m.Stats(); st.Repositions != 1 {
		t.Fatalf("repositions = %d, want 1", st.Repositions)
	}
	m.RemoveWorker(1, 10)
	m.Step(10)
	if _, ok := m.PlanOf(1); ok {
		t.Fatal("repositioning worker must depart at off, not at arrival")
	}
	if st := m.Stats(); st.Assigned != 0 {
		t.Fatalf("assigned = %d, want 0 (virtual only)", st.Assigned)
	}
}

func TestMachineTaskExpiringAtCommitInstant(t *testing.T) {
	// Arrival exactly at the expiration instant: Definition 4 requires
	// reaching the task strictly before e, so the commit must be refused
	// and the task expires.
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	// 0.5 km at 10 m/s = 50 s travel: planning at t=0 arrives exactly at 50.
	m.AddTask(task(1, 0.5, 0, 0, 50), 0)
	m.Step(0)
	if st := m.Stats(); st.Assigned != 0 {
		t.Fatalf("assigned = %d, want 0 (arrival == expiration)", st.Assigned)
	}
	m.Step(50)
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
}

func TestMachineTaskExpiringAtStepInstant(t *testing.T) {
	// A task whose expiration coincides with the step instant is evicted
	// before planning: Exp <= t means gone.
	m := machineWith(false)
	m.AddWorker(worker(1, 0.4, 0, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.5, 0, 0, 10), 0)
	m.Step(10) // first planning instant is exactly the expiration
	st := m.Stats()
	if st.Assigned != 0 || st.Expired != 1 {
		t.Fatalf("assigned/expired = %d/%d, want 0/1", st.Assigned, st.Expired)
	}
}

func TestMachineZeroDurationAvailabilityWindow(t *testing.T) {
	// on == off: the window [on, off) is empty, so the worker must never be
	// admitted — the degenerate case of a dynamic window collapsing.
	m := machineWith(false)
	if m.AddWorker(worker(1, 0, 0, 1, 5, 5), 5) {
		t.Fatal("zero-duration window admitted")
	}
	if m.Workers() != 0 {
		t.Fatalf("active workers = %d, want 0", m.Workers())
	}
	// Same through the engine: the worker is skipped at its own on instant.
	in := Input{
		Workers: []*core.Worker{worker(1, 0, 0, 1, 5, 5)},
		Tasks:   []*core.Task{task(1, 0.1, 0, 0, 400)},
		T0:      0, T1: 500,
	}
	res := Run(in, cfgWith(searchPlanner()))
	if res.Assigned != 0 || res.Expired != 1 {
		t.Fatalf("engine assigned/expired = %d/%d, want 0/1", res.Assigned, res.Expired)
	}
}

func TestMachineExpiredOnArrivalCounts(t *testing.T) {
	// A task published already past its expiration (late delivery of a
	// stale event) counts as expired exactly once.
	m := machineWith(false)
	if m.AddTask(task(1, 0.5, 0, 0, 10), 20) {
		t.Fatal("stale task admitted to the open pool")
	}
	m.Step(20)
	m.Step(21)
	if st := m.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want exactly 1", st.Expired)
	}
}

func TestMachineCancelReservedFixedTask(t *testing.T) {
	// FTA locks plans and reserves their tasks; cancelling a reserved task
	// must release the reservation and suppress the assignment.
	m := machineWith(true)
	m.AddWorker(worker(1, 0, 0, 2, 0, 10000), 0)
	m.AddTask(task(1, 0.5, 0, 0, 9000), 0)
	m.AddTask(task(2, 0.9, 0, 0, 9000), 0)
	m.Step(0) // fixed plan (1, 2); task 1 committed, task 2 reserved
	if st := m.Stats(); st.Assigned != 1 {
		t.Fatalf("assigned = %d, want 1", st.Assigned)
	}
	if !m.CancelTask(2) {
		t.Fatal("reserved task should be cancellable")
	}
	m.Step(50) // arrival at task 1; next head (task 2) is gone
	m.Step(90)
	st := m.Stats()
	if st.Assigned != 1 || st.Cancelled != 1 {
		t.Fatalf("assigned/cancelled = %d/%d, want 1/1", st.Assigned, st.Cancelled)
	}
}

func TestMachineUpdatePosIgnoredWhileMoving(t *testing.T) {
	m := machineWith(false)
	m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0)
	m.AddTask(task(1, 0.5, 0, 0, 400), 0)
	m.Step(0)
	// A position report during motion acknowledges the worker but must not
	// teleport it: the committed task still completes on schedule.
	if !m.UpdateWorkerPos(1, geo.Point{X: 3, Y: 3}) {
		t.Fatal("known moving worker reported as unknown")
	}
	m.Step(50) // arrival on the original schedule
	if wp, _ := m.PlanOf(1); wp.Moving {
		t.Fatal("motion should have completed at the original arrival time")
	}
	if !m.UpdateWorkerPos(1, geo.Point{X: 0.2, Y: 0}) {
		t.Fatal("position update refused for an idle worker")
	}
}

func TestMachineDuplicateAdmissionsRejected(t *testing.T) {
	m := machineWith(false)
	if !m.AddWorker(worker(1, 0, 0, 1, 0, 1000), 0) {
		t.Fatal("first admission refused")
	}
	if m.AddWorker(worker(1, 2, 2, 1, 0, 9000), 0) {
		t.Fatal("duplicate live worker id admitted")
	}
	if !m.AddTask(task(1, 0.5, 0, 0, 400), 0) {
		t.Fatal("first task refused")
	}
	if m.AddTask(task(1, 0.9, 0, 0, 400), 0) {
		t.Fatal("duplicate open task id admitted")
	}
	if st := m.Stats(); st.Expired != 0 {
		t.Fatalf("duplicate submit counted as expired: %+v", st)
	}
}

func TestMachineRemovalTracking(t *testing.T) {
	m := NewMachine(MachineConfig{
		Planner: searchPlanner(), Travel: travel, TrackRemovals: true,
	})
	m.AddWorker(worker(1, 0, 0, 1, 0, 100), 0)
	m.AddTask(task(1, 0.5, 0, 0, 400), 0)
	m.Step(0) // commits task 1
	if got := m.TakeClosedTasks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("closed tasks = %v, want [1]", got)
	}
	// An offline for the idle-again worker departs immediately.
	m.Step(50)
	m.RemoveWorker(1, 60)
	if got := m.TakeDepartedWorkers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("departed workers = %v, want [1]", got)
	}
	if m.HasWorker(1) {
		t.Fatal("removed idle worker still active")
	}
	// The same id can come back before the next Step.
	if !m.AddWorker(worker(1, 0, 0, 1, 60, 500), 60) {
		t.Fatal("re-admission after immediate removal refused")
	}
}

// poolRecorder records the pool each planning instant hands the planner —
// workers with their positions, then task ids — while delegating the plan.
type poolRecorder struct {
	inner assign.Planner
	calls []string
}

func (r *poolRecorder) Name() string { return "poolRecorder" }

func (r *poolRecorder) Plan(ws []*core.Worker, ts []*core.Task, now float64) core.Plan {
	var b strings.Builder
	b.WriteString("w")
	for _, w := range ws {
		fmt.Fprintf(&b, " %d@(%g,%g)", w.ID, w.Loc.X, w.Loc.Y)
	}
	b.WriteString(" t")
	for _, s := range ts {
		fmt.Fprintf(&b, " %d", s.ID)
	}
	r.calls = append(r.calls, b.String())
	return r.inner.Plan(ws, ts, now)
}

// poolMachine returns a machine whose planner records every pool it is
// handed, and a step helper that plans one instant and checks that pool:
// want "" means the planner must not be invoked.
func poolMachine(t *testing.T, trackCommits bool) (*Machine, func(now float64, want string)) {
	rec := &poolRecorder{inner: searchPlanner()}
	m := NewMachine(MachineConfig{Planner: rec, Travel: travel, TrackCommits: trackCommits})
	step := func(now float64, want string) {
		t.Helper()
		n := len(rec.calls)
		m.Step(now)
		switch {
		case want == "" && len(rec.calls) != n:
			t.Fatalf("t=%g: planner invoked with %q, want no call", now, rec.calls[n])
		case want != "" && len(rec.calls) != n+1:
			t.Fatalf("t=%g: planner calls %d → %d, want one", now, n, len(rec.calls))
		case want != "" && rec.calls[n] != want:
			t.Fatalf("t=%g: pool %q, want %q", now, rec.calls[n], want)
		}
	}
	return m, step
}

// The four TestMachineDirtyMarks* tests walk the events that used to mark
// dirty cells for incremental replanning. With one full-replan path, each
// now pins that the event is visible in the whole pool handed to the
// planner at the next instant: every available, uncommitted worker at its
// current position and every open task.

// TestMachineDirtyMarksEvents walks arrivals, a quiet instant, a heartbeat
// move, a cancel and a departure, starting with a planner-less instant.
func TestMachineDirtyMarksEvents(t *testing.T) {
	m, step := poolMachine(t, false)
	m.AddTask(task(1, 3.5, 3.5, 0, 1000), 0)
	step(0, "") // no plannable worker: no planner call
	m.AddWorker(worker(1, 0.5, 0.5, 0.4, 0, 1000), 1)
	step(1, "w 1@(0.5,0.5) t 1")
	step(2, "w 1@(0.5,0.5) t 1") // quiet instant: the same whole pool
	m.UpdateWorkerPos(1, geo.Point{X: 2.5, Y: 0.5})
	step(3, "w 1@(2.5,0.5) t 1")
	m.CancelTask(1)
	step(4, "w 1@(2.5,0.5) t")
	m.RemoveWorker(1, 5)
	m.AddWorker(worker(2, 1.5, 3.5, 0.4, 5, 1000), 5)
	step(5, "w 2@(1.5,3.5) t")
}

// TestMachineDirtyMarksCommitAndArrival pins the motion lifecycle: a
// committed worker and its task leave the pool, and the worker re-enters it
// at the destination on arrival.
func TestMachineDirtyMarksCommitAndArrival(t *testing.T) {
	m, step := poolMachine(t, false)
	m.AddWorker(worker(1, 0.5, 0.5, 1, 0, 10000), 0)
	m.AddTask(task(1, 1.5, 0.5, 0, 5000), 0)
	step(0, "w 1@(0.5,0.5) t 1") // plan + commit: 1 km at 0.01 km/s = 100 s
	step(50, "")                 // moving worker, served task: empty pool
	step(100, "w 1@(1.5,0.5) t")
}

// TestMachineDirtyMarksRetraction pins the arbitration hook: a retracted
// commit returns the worker to the pool at its pre-commit position, and the
// task stays out of it.
func TestMachineDirtyMarksRetraction(t *testing.T) {
	m, step := poolMachine(t, true)
	m.AddWorker(worker(1, 1.5, 1.5, 1, 0, 10000), 0)
	m.AddTask(task(1, 1.5, 2.4, 0, 5000), 0)
	step(0, "w 1@(1.5,1.5) t 1")
	if c := m.TakeCommits(); len(c) != 1 || c[0].Worker != 1 || c[0].Task != 1 {
		t.Fatalf("commits = %+v, want worker 1 → task 1", c)
	}
	if !m.RetractCommit(1, 1, 0) {
		t.Fatal("retraction refused")
	}
	step(1, "w 1@(1.5,1.5) t")
}

// TestMachineDirtyMarksFutureOnWorker pins the late-availability case: a
// worker admitted with a future On stays out of the pool at every earlier
// instant and joins it exactly at On, where it can take the open task.
func TestMachineDirtyMarksFutureOnWorker(t *testing.T) {
	m, step := poolMachine(t, true)
	// An always-available worker elsewhere keeps the planner running.
	m.AddWorker(worker(1, 0.5, 0.5, 0.3, 0, 1000), 0)
	m.AddWorker(worker(2, 3.5, 3.5, 0.4, 5, 1000), 0)
	m.AddTask(task(1, 3.5, 3.2, 0, 5000), 0)
	for now := 0.0; now < 5; now++ {
		step(now, "w 1@(0.5,0.5) t 1")
	}
	step(5, "w 1@(0.5,0.5) 2@(3.5,3.5) t 1")
	if c := m.TakeCommits(); len(c) != 1 || c[0].Worker != 2 || c[0].Task != 1 {
		t.Fatalf("commits = %+v, want worker 2 → task 1", c)
	}
	step(6, "w 1@(0.5,0.5) t")
}
