// Package dispatch is the live counterpart of internal/stream: a long-running
// assignment service that accepts concurrent events — worker online/offline,
// task submit/cancel, position updates — through a buffered ingest queue,
// batches them into planning epochs at a fixed cadence, and runs each epoch
// through the existing planner stack. The region is sharded over the demand
// grid, one stream.Machine per shard, and independent shards plan in parallel
// via internal/par.
//
// Determinism contract: event routing is a pure function of the event (the
// shard owning the grid cell of the worker's online location or the task's
// location, per the explicit cell→shard ownership map; a worker keeps its
// shard for its whole session), shard machines are deterministic, per-epoch
// shard results land in per-shard slots merged in shard order, and commit
// arbitration works on that merged, ordered commit set. A dispatcher fed one
// event stream from a single producer therefore produces identical
// assignment state on every run at every parallelism level — and with one
// shard it reproduces stream.Engine's Assigned/Expired counts on the same
// trace, which the package tests pin down.
//
// Ingestion (WorkerOnline, SubmitTask, …) is safe from any number of
// goroutines and never touches planner state: producers only append to the
// queue. All planning happens inside Advance/Tick under the dispatcher's
// epoch lock, which Snapshot and PlanOf also take.
//
// Cross-shard handoff (multi-shard): shard ownership is an explicit
// cell→shard map over the demand grid — contiguous row-major bands, so each
// shard's territory has a small boundary surface. A task whose halo disk
// (Config.HaloRadius; by default the largest admitted worker reach) overlaps
// cells owned by other shards is replicated into those shards as a read-only
// ghost candidate, so a worker positioned in or near its own shard's band —
// the steady state, since workers online there and serve nearby tasks — sees
// every task inside its reachability disk regardless of which shard owns it.
// (A worker that task-chains far beyond its band plus the halo radius can
// still miss tasks near its drifted position; the benchmark suite's
// per-cell fidelity_gap bounds the aggregate effect.) Two shards committing
// the same task in one epoch are resolved by a deterministic arbitration
// step after the parallel Step: the earliest-arrival commit wins (worker id,
// then shard id break ties), losers are retracted — the worker resumes the
// rest of its plan in the same instant and re-plans fully next epoch — and
// every surviving copy of a committed task is dropped before the next
// planning instant. Snapshot reports the replication volume (GhostCopies,
// RoutedGhosts), cross-shard wins (GhostHits), and arbitration activity
// (CommitConflicts, Retractions); docs/BENCHMARKS.md records the residual
// fidelity gap per workload in the BENCH_*.json trajectory.
//
// Measurement: Snapshot exposes counters and epoch-latency percentiles;
// LoadGen replays a workload.Scenario trace against a dispatcher for
// closed-loop throughput runs. The benchmark suite (internal/benchsuite,
// cmd/datawa-bench -suite) drives exactly that pair for the live-path
// figures in BENCH_*.json.
package dispatch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stream"
)

// EventKind tags one ingest event.
type EventKind int

const (
	// KindWorkerOnline admits a worker (Event.Worker).
	KindWorkerOnline EventKind = iota
	// KindWorkerOffline ends a worker's availability window (Event.ID).
	KindWorkerOffline
	// KindTaskSubmit publishes a task (Event.Task).
	KindTaskSubmit
	// KindTaskCancel withdraws an open task (Event.ID).
	KindTaskCancel
	// KindPosition reports an idle worker's position (Event.ID, Event.Loc).
	KindPosition
)

// Event is one ingest-queue entry. Time is the logical instant the event
// takes effect: it is applied at the first epoch t with Time ≤ t.
type Event struct {
	Time   float64
	Kind   EventKind
	Worker *core.Worker // KindWorkerOnline
	Task   *core.Task   // KindTaskSubmit
	ID     int          // KindWorkerOffline, KindTaskCancel, KindPosition
	Loc    geo.Point    // KindPosition
}

// Config parameterizes a Dispatcher.
type Config struct {
	// Shards is the number of region shards (default 1). Each shard owns a
	// deterministic subset of the grid's cells and runs its own planner.
	Shards int
	// Grid partitions the region into cells; an explicit ownership map
	// assigns each shard one contiguous row-major band of cells. Required
	// when Shards > 1; ignored with one shard.
	Grid geo.Grid
	// Deprecated: ignored — every shard replans its whole pool each epoch.
	// The perfbench module is its only reader; a later benchmark change
	// removes it.
	DisableIncremental bool
	// HaloRadius configures cross-shard task handoff, in kilometers: a task
	// whose disk of this radius overlaps grid cells owned by other shards is
	// replicated into those shards as a read-only ghost candidate, and
	// duplicate commits are arbitrated deterministically each epoch. 0 (the
	// default) derives the radius automatically from the largest Reach of
	// any admitted worker, which makes every task visible to every worker
	// whose reachability disk could cover it; a negative value disables
	// replication entirely (boundary workers stay blind to neighbor-shard
	// tasks, the pre-halo behavior). Ignored with one shard.
	HaloRadius float64
	// Step is the epoch length in logical seconds (default 1).
	Step float64
	// Now is the initial logical clock (the first epoch instant).
	Now float64
	// Travel must match the planners' travel model.
	Travel geo.TravelModel
	// Fixed selects FTA semantics (see stream.Config.Fixed).
	Fixed bool
	// NewPlanner builds the planner for one shard. Required unless NewLadder
	// is set. Planners are stateful, so each shard must get its own instance.
	NewPlanner func(shard int) assign.Planner
	// NewLadder builds one shard's degradation ladder: index 0 is the full
	// planner, later entries progressively cheaper fallbacks (e.g. DTA →
	// Greedy → Match). Consulted only when the governor is enabled
	// (Governor.Budget > 0); without it the ladder is the single planner
	// from NewPlanner and the governor has nowhere to step down to.
	NewLadder func(shard int) []assign.Planner
	// Admission bounds the ingest path; the zero value admits everything.
	Admission AdmissionConfig
	// Governor enables SLA-aware planner degradation when Budget > 0: each
	// shard's windowed p95 epoch cost is held under the budget by stepping
	// that shard down the ladder, recovering hysteretically.
	Governor GovernorConfig
	// Obs configures the observability core — stage spans, the per-task
	// lifecycle ledger, and the flight recorder (see ObsConfig). The epoch
	// and stage wall-time histograms are always on.
	Obs ObsConfig
	// Forecast, when non-nil, injects virtual (predicted) tasks. Forecasting
	// is global, not per shard: the model sees the full published stream —
	// per-shard series would dilute demand counts below the materialization
	// threshold — and each materialized virtual task is routed to the shard
	// owning its cell. When the forecaster implements stream.HistoryBounded,
	// older published tasks are pruned so the history feed stays bounded
	// over the service's lifetime.
	Forecast stream.Forecaster
	// Parallelism bounds the goroutines planning one epoch's shards
	// concurrently (0 = one per CPU, 1 = serial). Results are identical at
	// every setting.
	Parallelism int
	// QueueSize is the ingest buffer capacity (default 4096). A producer
	// hitting a full queue spills the backlog into the (unbounded) pending
	// buffer under the epoch lock, so ingestion never drops events and
	// never deadlocks — even for a single goroutine enqueuing a whole trace
	// before the first epoch runs. Sustained overload therefore shows up as
	// pending-buffer growth (Metrics.QueueDepth) and epoch latency, not as
	// lost events.
	QueueSize int
}

// latencyWindow is how many recent epoch latencies feed Snapshot's
// percentiles.
const latencyWindow = 1024

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.Travel.Speed <= 0 {
		c.Travel = geo.NewTravelModel(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	return c
}

// ShardMetrics is one shard's slice of a metrics snapshot.
type ShardMetrics struct {
	Shard   int          `json:"shard"`
	Workers int          `json:"workers"`
	Open    int          `json:"open_tasks"`
	Stats   stream.Stats `json:"stats"`
	// Tier is the shard's current degradation-ladder position (0 = full
	// planner) and TierName the active planner's name; zero/empty without
	// a governor.
	Tier     int    `json:"tier"`
	TierName string `json:"tier_name,omitempty"`
}

// Metrics is a point-in-time snapshot of the dispatcher.
type Metrics struct {
	// Now is the next epoch instant on the logical clock.
	Now float64 `json:"now"`
	// Epochs is the number of planning epochs executed.
	Epochs int `json:"epochs"`
	// Ingested counts events accepted onto the queue; Applied counts events
	// that changed shard state; Unroutable counts events that had no effect
	// — unknown or already-departed ids, and online/submit events
	// duplicating a still-live id.
	Ingested   int64 `json:"ingested"`
	Applied    int64 `json:"applied"`
	Unroutable int64 `json:"unroutable"`
	// QueueDepth is the current ingest backlog (queued + drained-but-undue).
	QueueDepth int `json:"queue_depth"`
	// RoutedWorkers and RoutedTasks are the live routing-map sizes: workers
	// currently active and tasks currently open, as the router sees them.
	RoutedWorkers int `json:"routed_workers"`
	RoutedTasks   int `json:"routed_tasks"`
	// RoutedGhosts is the number of live tasks currently replicated into at
	// least one non-owner shard; GhostCopies counts every replica created
	// over the service's lifetime.
	RoutedGhosts int   `json:"routed_ghosts"`
	GhostCopies  int64 `json:"ghost_copies"`
	// GhostHits counts tasks won by a non-owner shard through a replica —
	// assignments the boundary-blind router would have missed.
	GhostHits int64 `json:"ghost_hits"`
	// CommitConflicts counts tasks committed by more than one shard in the
	// same epoch; Retractions counts the losing commits arbitration undid.
	CommitConflicts int64 `json:"commit_conflicts"`
	Retractions     int64 `json:"retractions"`
	// Deprecated: always 0 and absent from the JSON — every shard replans
	// its whole pool each epoch. The perfbench module is its only reader; a
	// later benchmark change removes it.
	IncrementalHits int64 `json:"-"`
	// Deprecated: always 0 and absent from the JSON, like the field above.
	// The perfbench module is its only reader; a later benchmark change
	// removes it.
	ComponentsReplanned int64 `json:"-"`
	// Assigned/Expired/Cancelled/Repositions aggregate all shards.
	Assigned    int `json:"assigned"`
	Expired     int `json:"expired"`
	Cancelled   int `json:"cancelled"`
	Repositions int `json:"repositions"`
	// Shed counts tasks terminally dropped by admission control — pool
	// displacements (per-shard Stats.Shed) plus ingest-path sheds that
	// never reached a shard. After a full drain, assigned + expired +
	// cancelled + shed accounts every submitted task exactly once.
	// Deferred counts deferral events: non-terminal requeues, one per
	// epoch a task was pushed back, so it can exceed the task count.
	Shed     int64 `json:"shed"`
	Deferred int64 `json:"deferred"`
	// TierDemotions/TierPromotions count governor ladder transitions;
	// WorstTier is the deepest tier any shard reached. All zero without a
	// governor.
	TierDemotions  int64 `json:"tier_demotions"`
	TierPromotions int64 `json:"tier_promotions"`
	WorstTier      int   `json:"worst_tier"`
	// PlanCalls and PlanTime aggregate planner invocations across shards.
	PlanCalls int           `json:"plan_calls"`
	PlanTime  time.Duration `json:"plan_time_ns"`
	// EpochP50/P95/P99 are epoch wall-latency percentiles over the last
	// 1024 epochs (latencyWindow).
	EpochP50 time.Duration `json:"epoch_p50_ns"`
	EpochP95 time.Duration `json:"epoch_p95_ns"`
	EpochP99 time.Duration `json:"epoch_p99_ns"`
	// Shards breaks the counters down per shard, in shard order.
	Shards []ShardMetrics `json:"shards"`
}

// Dispatcher is the live assignment service. Create with New, feed it events
// (from any goroutine), and advance its epoch clock either manually (Advance,
// Tick — deterministic, used by tests and LoadGen) or on wall time (Serve).
type Dispatcher struct {
	cfg   Config
	rings *shardedQueue // the ingest buffer: one lock-free ring per shard

	ingested   atomic.Int64
	applied    atomic.Int64
	unroutable atomic.Int64
	nowBits    atomic.Uint64 // next epoch instant, for lock-free stamping
	// seqCtr stamps every event with its global ingest order at enqueue
	// time (see stampedEvent); requeues (admission deferrals) draw from the
	// same counter under the epoch lock.
	seqCtr atomic.Int64
	// synthID assigns server-side task ids for streamed submits with id 0,
	// starting above any client-chosen range (see syntheticIDBase).
	synthID atomic.Int64

	mu      sync.Mutex
	pending eventHeap         // drained from the queue, not yet due; guarded by mu
	shards  []*stream.Machine // slice and elements set in New, immutable after
	smap    *shardMap         // cell ownership; nil with one shard; immutable after New
	owner   map[int]int       // worker id → shard; guarded by mu
	taskOf  map[int]int       // task id → owning shard; guarded by mu
	ghosts  map[int][]int     // task id → shards holding a live replica; guarded by mu
	// maxReach is the largest Reach among admitted workers — the automatic
	// halo radius when Config.HaloRadius is 0. reGhost marks a pending
	// re-replication pass after maxReach grew; it runs once per tick, since
	// visibility only matters at planning instants and a burst of admissions
	// would otherwise rescan the open pool once per worker.
	maxReach float64 // guarded by mu
	reGhost  bool    // guarded by mu
	// Halo/arbitration counters (see Metrics).
	ghostCopies int64        // guarded by mu
	ghostHits   int64        // guarded by mu
	conflicts   int64        // guarded by mu
	retractions int64        // guarded by mu
	clock       float64      // next epoch instant; guarded by mu
	epochs      int          // guarded by mu
	lat         *latencyRing // guarded by mu
	// Admission state: shedIngest counts tasks terminally dropped on the
	// ingest path (never admitted to a shard); deferred counts deferral
	// events (non-terminal requeues); victims orders the open pool by
	// deadline for displacement.
	shedIngest int64      // guarded by mu
	deferred   int64      // guarded by mu
	victims    victimHeap // guarded by mu
	// Governor state: gov is nil when disabled; tiered holds each shard's
	// ladder dispatcher. costs (governor only) and preWorkers/preOpen/
	// shardWall (governor or spans) are per-tick scratch, allocated once.
	gov        *Governor        // guarded by mu
	tiered     []*tieredPlanner // guarded by mu
	costFn     CostFunc         // guarded by mu
	costs      []float64        // guarded by mu
	preWorkers []int            // guarded by mu
	preOpen    []int            // guarded by mu
	shardWall  []time.Duration  // guarded by mu
	// ob is the observability core: always non-nil — histograms are always
	// on; spans/ledger/flight inside it are gated by Config.Obs.
	ob *obsState // guarded by mu
	// Global forecast state (Config.Forecast only).
	published    []*core.Task // guarded by mu
	lastForecast float64      // guarded by mu
}

// New builds a dispatcher. It panics on an unusable configuration (missing
// planner factory, or multiple shards without a grid) — both are programming
// errors, not runtime conditions.
//
//datawa:locked(mu) the constructor owns the fresh value; no other goroutine can hold a reference yet
func New(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	govOn := cfg.Governor.Budget > 0
	if cfg.NewPlanner == nil && !(govOn && cfg.NewLadder != nil) {
		panic("dispatch: Config.NewPlanner is required")
	}
	if cfg.Shards > 1 && cfg.Grid.Cells() <= 0 {
		panic("dispatch: Config.Grid is required when Shards > 1")
	}
	d := &Dispatcher{
		cfg:    cfg,
		shards: make([]*stream.Machine, cfg.Shards),
		owner:  make(map[int]int),
		taskOf: make(map[int]int),
		ghosts: make(map[int][]int),
		clock:  cfg.Now,
		lat:    newLatencyRing(latencyWindow),
		rings:  newShardedQueue(cfg.Shards, cfg.QueueSize),
	}
	d.synthID.Store(syntheticIDBase)
	d.ob = newObsState(cfg.Obs, cfg.Shards)
	if cfg.Shards > 1 {
		d.smap = newShardMap(cfg.Grid, cfg.Shards)
	}
	// Split the parallelism budget between the shard fan-out and each
	// planner's internal fan-out: with multiple shards planning
	// concurrently, a planner that also resolved the knob to one goroutine
	// per CPU would oversubscribe the cores Shards-fold and inflate the very
	// epoch latencies the service reports. Plans are parallelism-invariant
	// by the planner contract, so only CPU time is affected.
	perPlanner := 0
	if cfg.Shards > 1 {
		total := cfg.Parallelism
		if total == 0 {
			total = runtime.GOMAXPROCS(0)
		}
		perPlanner = total / par.Workers(cfg.Parallelism, cfg.Shards)
		if perPlanner < 1 {
			perPlanner = 1
		}
	}
	if govOn {
		d.tiered = make([]*tieredPlanner, cfg.Shards)
	}
	for i := range d.shards {
		var planner assign.Planner
		if govOn {
			var ladder []assign.Planner
			if cfg.NewLadder != nil {
				ladder = cfg.NewLadder(i)
			} else {
				ladder = []assign.Planner{cfg.NewPlanner(i)}
			}
			if len(ladder) == 0 {
				panic("dispatch: Config.NewLadder returned an empty ladder")
			}
			d.tiered[i] = &tieredPlanner{ladder: ladder}
			planner = d.tiered[i]
		} else {
			planner = cfg.NewPlanner(i)
		}
		if p, ok := planner.(interface{ SetParallelism(int) }); ok && perPlanner > 0 {
			p.SetParallelism(perPlanner)
		}
		// Machines get no forecaster of their own: virtuals come from the
		// dispatcher-level forecast, routed by cell ownership.
		d.shards[i] = stream.NewMachine(stream.MachineConfig{
			Planner:       planner,
			Fixed:         cfg.Fixed,
			Travel:        cfg.Travel,
			TrackRemovals: true,
			// Commit logs feed cross-shard arbitration; with one shard or
			// replication disabled nothing drains them, so leave them off.
			TrackCommits: cfg.Shards > 1 && cfg.HaloRadius >= 0,
			// Disposal logs feed the lifecycle ledger; off with it.
			TrackDisposals: d.ob.ledger != nil,
		})
	}
	if govOn {
		d.gov = NewGovernor(cfg.Governor, cfg.Shards, len(d.tiered[0].ladder))
	}
	d.costFn = cfg.Governor.withDefaults().Cost
	if d.gov != nil {
		d.costs = make([]float64, cfg.Shards)
	}
	if d.gov != nil || d.ob.spans != nil {
		d.preWorkers = make([]int, cfg.Shards)
		d.preOpen = make([]int, cfg.Shards)
		d.shardWall = make([]time.Duration, cfg.Shards)
	}
	d.lastForecast = math.Inf(-1)
	d.nowBits.Store(math.Float64bits(cfg.Now))
	return d
}

// Now returns the next epoch instant on the logical clock. Events ingested
// through the convenience methods are stamped with it, so they take effect
// at the next epoch.
func (d *Dispatcher) Now() float64 {
	return math.Float64frombits(d.nowBits.Load())
}

// Ingest enqueues one event with an explicit effect time. Safe for
// concurrent use. When the queue is full the caller spills the backlog into
// the pending buffer itself (taking the epoch lock), so a single goroutine
// can enqueue arbitrarily many events without an intervening epoch. The fast
// path is one atomic counter increment plus one ring CAS — no lock, and no
// contention between producers in different regions.
func (d *Dispatcher) Ingest(ev Event) {
	se := stampedEvent{ev: ev, seq: d.seqCtr.Add(1)}
	if !d.laneOf(ev).tryPush(se) {
		// Full lane: spill everything queued into the pending heap and place
		// this event there directly — never dropped, never blocked.
		d.mu.Lock()
		d.drainLocked()
		d.pending.push(pendingEvent{ev: se.ev, seq: se.seq})
		d.mu.Unlock()
	}
	d.ingested.Add(1)
}

// WorkerOnline admits a worker at the next epoch.
func (d *Dispatcher) WorkerOnline(w *core.Worker) {
	d.Ingest(Event{Time: d.Now(), Kind: KindWorkerOnline, Worker: w})
}

// WorkerOffline ends a worker's availability window at the next epoch.
func (d *Dispatcher) WorkerOffline(id int) {
	d.Ingest(Event{Time: d.Now(), Kind: KindWorkerOffline, ID: id})
}

// SubmitTask publishes a task at the next epoch.
func (d *Dispatcher) SubmitTask(s *core.Task) {
	d.Ingest(Event{Time: d.Now(), Kind: KindTaskSubmit, Task: s})
}

// CancelTask withdraws an open task at the next epoch.
func (d *Dispatcher) CancelTask(id int) {
	d.Ingest(Event{Time: d.Now(), Kind: KindTaskCancel, ID: id})
}

// Heartbeat reports a worker's position, applied at the next epoch when the
// worker is idle.
func (d *Dispatcher) Heartbeat(id int, loc geo.Point) {
	d.Ingest(Event{Time: d.Now(), Kind: KindPosition, ID: id, Loc: loc})
}

// shardOf routes a location to its owning shard.
func (d *Dispatcher) shardOf(p geo.Point) int {
	if d.smap == nil {
		return 0
	}
	return d.smap.ownerOf(p)
}

// haloEnabled reports whether cross-shard ghost replication is active.
func (d *Dispatcher) haloEnabled() bool {
	return d.smap != nil && d.cfg.HaloRadius >= 0
}

// haloRadiusLocked resolves the current halo radius: the configured fixed
// radius, or — in auto mode — the largest admitted worker reach so far.
//
//datawa:locked(mu)
func (d *Dispatcher) haloRadiusLocked() float64 {
	if d.cfg.HaloRadius > 0 {
		return d.cfg.HaloRadius
	}
	return d.maxReach
}

// replicateLocked installs ghost replicas of an owned open task into every
// shard whose territory its halo disk overlaps. Already-replicated shards
// are skipped (AddGhost rejects duplicates), so the call is idempotent —
// re-running it after the auto halo radius grows adds only the missing
// replicas. The disk is centered on the task's location clamped to the
// region: ownership routing clamps off-map points (Grid.CellOf snaps stray
// GPS fixes to boundary cells), so the halo query must reason from the same
// snapped geometry — an exact off-region disk could overlap no cell at all
// and leave a boundary worker blind to a reachable off-map task.
//
//datawa:locked(mu)
func (d *Dispatcher) replicateLocked(s *core.Task, owner int, t float64) {
	r := d.haloRadiusLocked()
	if r <= 0 {
		return
	}
	p := d.cfg.Grid.Region.Clamp(s.Loc)
	for _, g := range d.smap.shardsInDisk(p, r, owner) {
		if d.shards[g].AddGhost(s, t) {
			d.ghosts[s.ID] = append(d.ghosts[s.ID], g)
			d.ghostCopies++
			d.recordTask(s.ID, obs.GhostReplicated, g, 0, "")
		}
	}
}

// reGhostLocked re-evaluates replication for every open owned task — run
// once per tick, after the epoch's events applied, when the automatic halo
// radius grew: tasks submitted before a long-reach worker came online
// become visible to its shard at the same planning instant that admits the
// worker. Task ids are walked in sorted order: replication appends to each
// shard's planning pool, so the order must be a pure function of the event
// stream.
//
//datawa:locked(mu)
func (d *Dispatcher) reGhostLocked(t float64) {
	ids := make([]int, 0, len(d.taskOf))
	//datawa:unordered ids are sorted before any shard is touched
	for id := range d.taskOf {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		owner := d.taskOf[id]
		if s, ok := d.shards[owner].OpenTask(id); ok {
			d.replicateLocked(s, owner, t)
		}
	}
}

// Tick runs exactly one planning epoch at the current clock instant and
// advances the clock one step.
func (d *Dispatcher) Tick() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tickLocked()
}

// Advance runs epochs at the step cadence while the clock is before `to`
// (exclusive, matching the engine's `for t := T0; t < T1` loop). Driving a
// fresh dispatcher with Advance(T1) replays exactly the planning instants
// stream.Engine executes on [Now, T1).
func (d *Dispatcher) Advance(to float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.clock < to {
		d.tickLocked()
	}
}

// Serve drives epochs from wall time until the context is cancelled: one
// epoch every Step/timeScale wall seconds (timeScale ≤ 0 means 1 — real
// time; 60 runs a minute of logical time per wall second).
func (d *Dispatcher) Serve(ctx context.Context, timeScale float64) error {
	if timeScale <= 0 {
		timeScale = 1
	}
	interval := time.Duration(d.cfg.Step / timeScale * float64(time.Second))
	if interval <= 0 {
		return fmt.Errorf("dispatch: step %v at scale %v yields no tick interval", d.cfg.Step, timeScale)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			d.Tick()
		}
	}
}

// tickLocked is one epoch: drain the queue, apply due events, plan every
// shard concurrently, advance the clock. Caller holds d.mu. Every stage is
// timed into the observability core's histograms; with span recording on
// (ObsConfig.Spans) each stage also leaves a span — track 0 for the
// dispatcher's sequential work, one track per shard for the parallel Steps.
//
//datawa:locked(mu)
func (d *Dispatcher) tickLocked() {
	t := d.clock
	o := d.ob
	o.epoch, o.now = d.epochs, t
	o.cur = o.cur[:0]
	if o.arbitrated != nil {
		clear(o.arbitrated)
	}
	tick0 := time.Now() //datawa:wallclock epoch histogram timing, observability only

	t0 := time.Now() //datawa:wallclock stage-span timing, observability only
	drained := d.drainLocked()
	o.observe(stageDrain, t0, drained, "", true)

	t0 = time.Now() //datawa:wallclock stage-span timing, observability only
	applied := d.applyDueLocked(t)
	o.observe(stageAdmission, t0, applied, "", true)

	t0 = time.Now() //datawa:wallclock stage-span timing, observability only
	ranReGhost := false
	if d.reGhost {
		d.reGhost = false
		d.reGhostLocked(t)
		ranReGhost = true
	}
	o.observe(stageReGhost, t0, 0, "", ranReGhost)

	t0 = time.Now() //datawa:wallclock stage-span timing, observability only
	ranForecast, virtuals := d.forecastLocked(t)
	o.observe(stageForecast, t0, virtuals, "", ranForecast)

	// Pool sizes at the planning instant feed the governor's cost function
	// and the per-shard span details; captured before the Step mutates them.
	instrument := d.gov != nil || o.spans != nil
	if instrument {
		for i, m := range d.shards {
			d.preWorkers[i] = m.Workers()
			d.preOpen[i] = m.OpenTasks()
		}
	}
	start := time.Now() //datawa:wallclock stage-span timing, observability only
	//datawa:locked(mu) the epoch lock is held across the whole parallel region; each worker touches only its own shard slot
	par.Do(len(d.shards), d.cfg.Parallelism, func(i int) {
		if instrument {
			s0 := time.Now() //datawa:wallclock per-shard span timing, observability only
			d.shards[i].Step(t)
			d.shardWall[i] = time.Since(s0) //datawa:wallclock per-shard wall stats, observability only
			if o.shardSpan != nil {
				o.shardSpan[i] = obs.Span{
					Name: "step", Track: 1 + i,
					StartNS: s0.Sub(o.base).Nanoseconds(),
					DurNS:   d.shardWall[i].Nanoseconds(),
				}
			}
		} else {
			d.shards[i].Step(t)
		}
	})
	o.observe(stageStep, start, len(d.shards), "", true)
	if o.shardSpan != nil {
		// Per-shard spans were written into disjoint slots inside the
		// parallel region; merge them in shard order with deterministic
		// logical detail (pool sizes, and the tier and planner the epoch
		// planned at).
		for i := range o.shardSpan {
			sp := o.shardSpan[i]
			sp.N = d.preOpen[i]
			if d.tiered != nil {
				sp.Detail = fmt.Sprintf("workers=%d open=%d tier=%d planner=%s",
					d.preWorkers[i], d.preOpen[i], d.tiered[i].tier, d.tiered[i].Name())
			} else {
				sp.Detail = fmt.Sprintf("workers=%d open=%d", d.preWorkers[i], d.preOpen[i])
			}
			o.cur = append(o.cur, sp)
		}
	}

	t0 = time.Now() //datawa:wallclock stage-span timing, observability only
	rounds := d.arbitrateLocked(t)
	o.observe(stageArbitration, t0, rounds, "", true)
	d.drainDisposalsLocked()

	// The latency ring keeps its historical meaning — Step + arbitration
	// wall, the quantity the BENCH trajectory gates — while the epoch
	// histogram covers the whole tick including ingest and forecast.
	wall := time.Since(start) //datawa:wallclock latency ring sample, observability only
	d.lat.add(wall)
	o.epochHist.Observe(time.Since(tick0).Seconds()) //datawa:wallclock epoch histogram sample, observability only

	// Retire routing entries for departed workers and closed tasks so the
	// maps track the live population, not the service's lifetime history.
	// The HasWorker/HasOpenTask guards keep an id that was re-admitted in
	// this same epoch routable.
	for shard, m := range d.shards {
		for _, id := range m.TakeDepartedWorkers() {
			if d.owner[id] == shard && !m.HasWorker(id) {
				delete(d.owner, id)
			}
		}
		for _, id := range m.TakeClosedTasks() {
			if d.taskOf[id] == shard && !m.HasOpenTask(id) {
				delete(d.taskOf, id)
				// An owner-side expiry closes the replicas too (same Exp,
				// same eviction instant); only the routing entry remains.
				delete(d.ghosts, id)
			}
		}
	}

	if d.gov != nil {
		// Governor decisions apply from the next epoch: the tier is set
		// after this epoch's Step, under the same lock the next Step plans
		// under, so every shard's planner is fixed for a whole epoch. The
		// cost is a function of the shard's step span inputs alone.
		for i := range d.shards {
			d.costs[i] = d.costFn(i, d.shardWall[i], d.preWorkers[i], d.preOpen[i])
			d.tiered[i].setTier(d.gov.Observe(i, d.costs[i]))
		}
	}
	if o.spans != nil {
		o.spans.Add(obs.EpochSpans{Epoch: o.epoch, Now: t, Spans: append([]obs.Span(nil), o.cur...)})
	}
	d.maybeFlightLocked(t)
	d.epochs++
	d.clock = t + d.cfg.Step
	d.nowBits.Store(math.Float64bits(d.clock))
}

// arbitrateLocked resolves cross-shard commits after the parallel Step.
// Replicated tasks can be committed by several shards in one epoch; exactly
// one commit may stand. The winner is chosen by earliest arrival (worker id,
// then shard id break ties — a pure function of the merged commit set, so
// the outcome is identical at every parallelism level), losers are
// retracted, and every surviving copy of a committed task is dropped from
// the other shards so no one can commit it in a later epoch. A retracted
// worker immediately resumes the remainder of its plan, which can produce
// fresh commits — hence the rounds; each round consumes plan entries, so the
// loop terminates.
// It returns the number of arbitration rounds that resolved at least one
// task.
//
//datawa:locked(mu)
func (d *Dispatcher) arbitrateLocked(t float64) int {
	if !d.haloEnabled() {
		return 0
	}
	type commit struct {
		shard int
		c     stream.Commit
	}
	rounds := 0
	for {
		round0 := time.Now() //datawa:wallclock arbitration-round span timing, observability only
		byTask := make(map[int][]commit)
		for i, m := range d.shards {
			for _, c := range m.TakeCommits() {
				// Only replicated tasks can conflict or leave stale copies;
				// a single-copy commit needs no arbitration.
				if len(d.ghosts[c.Task]) > 0 {
					byTask[c.Task] = append(byTask[c.Task], commit{shard: i, c: c})
				}
			}
		}
		if len(byTask) == 0 {
			return rounds
		}
		rounds++
		ids := make([]int, 0, len(byTask))
		//datawa:unordered ids are sorted before arbitration begins
		for id := range byTask {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		// Phase 1: pick each task's winner and purge every surviving copy of
		// every arbitrated task. All drops happen before any retraction: a
		// retracted worker resumes its plan immediately, and if a task later
		// in this round still had an open replica the resume could commit it
		// — a commit outside its own arbitration group, i.e. a double
		// assignment.
		var losers []commit
		for _, id := range ids {
			cms := byTask[id]
			best := 0
			for j := 1; j < len(cms); j++ {
				a, b := cms[j], cms[best]
				if a.c.Arrive != b.c.Arrive {
					if a.c.Arrive < b.c.Arrive {
						best = j
					}
					continue
				}
				if a.c.Worker != b.c.Worker {
					if a.c.Worker < b.c.Worker {
						best = j
					}
					continue
				}
				if a.shard < b.shard {
					best = j
				}
			}
			if len(cms) > 1 {
				d.conflicts++
			}
			winner := cms[best].shard
			owner, owned := d.taskOf[id]
			if owned && winner != owner {
				d.ghostHits++
			}
			for j, cm := range cms {
				if j != best {
					losers = append(losers, cm)
					// Ledger the losing commits before the terminal
					// assignment so the chain stays well-formed (nothing
					// after a terminal state). The retraction itself runs
					// in phase 2 below.
					d.recordTask(id, obs.Retracted, cm.shard, cm.c.Worker,
						fmt.Sprintf("lost arbitration to worker %d", cms[best].c.Worker))
				}
			}
			cause := ""
			switch {
			case len(cms) > 1 && owned && winner != owner:
				cause = fmt.Sprintf("ghost hit; won arbitration (%d commits)", len(cms))
			case len(cms) > 1:
				cause = fmt.Sprintf("won arbitration (%d commits)", len(cms))
			case owned && winner != owner:
				cause = "ghost hit"
			}
			d.recordTask(id, obs.Assigned, winner, cms[best].c.Worker, cause)
			if d.ob.arbitrated != nil {
				d.ob.arbitrated[id] = true
			}
			// Drop the copies that did not commit: the owner's (when a ghost
			// won) and every other shard's replica.
			if owned && winner != owner {
				d.shards[owner].DropTask(id)
			}
			for _, g := range d.ghosts[id] {
				if g != winner {
					d.shards[g].DropTask(id)
				}
			}
			delete(d.ghosts, id)
			delete(d.taskOf, id)
		}
		// Phase 2: retract the losers. Resumed workers can only commit tasks
		// not arbitrated yet — fresh replicated commits land in the machines'
		// logs and the next round collects them.
		retract0 := time.Now() //datawa:wallclock retraction span timing, observability only
		for _, cm := range losers {
			if d.shards[cm.shard].RetractCommit(cm.c.Worker, cm.c.Task, t) {
				d.retractions++
			}
		}
		if len(losers) > 0 {
			d.ob.span("retract", 0, retract0, len(losers), fmt.Sprintf("round=%d", rounds))
		}
		d.ob.span("arbitration-round", 0, round0, len(ids),
			fmt.Sprintf("round=%d tasks=%d losers=%d", rounds, len(ids), len(losers)))
	}
}

// forecastLocked refreshes the global virtual-task sets at the forecaster's
// cadence and hands each shard the virtuals for the cells it owns. The
// forecaster sees the complete published stream — mirroring the engine's
// forecast step — so sharding does not dilute the demand counts the model
// was trained on. It reports whether a refresh ran and how many virtual
// tasks it materialized.
//
//datawa:locked(mu)
func (d *Dispatcher) forecastLocked(t float64) (bool, int) {
	if d.cfg.Forecast == nil {
		return false, 0
	}
	if t-d.lastForecast < d.cfg.Forecast.Span() {
		return false, 0
	}
	d.lastForecast = t
	if hb, ok := d.cfg.Forecast.(stream.HistoryBounded); ok {
		d.published = stream.PruneHistory(d.published, t-hb.HistorySpan())
	}
	virtuals := d.cfg.Forecast.Virtuals(d.published, t)
	byShard := make([][]*core.Task, len(d.shards))
	for _, v := range virtuals {
		shard := d.shardOf(v.Loc)
		byShard[shard] = append(byShard[shard], v)
	}
	for i, m := range d.shards {
		m.SetVirtuals(byShard[i])
	}
	return true, len(virtuals)
}

// drainLocked moves queued events into the pending heap without blocking,
// returning how many it moved. Events carry their enqueue-time sequence
// numbers and the heap orders them by (time, sequence), so lane interleaving
// never changes what an epoch sees.
//
//datawa:locked(mu)
func (d *Dispatcher) drainLocked() int {
	n := 0
	for _, l := range d.rings.lanes {
		for {
			se, ok := l.pop()
			if !ok {
				break
			}
			d.pending.push(pendingEvent{ev: se.ev, seq: se.seq})
			n++
		}
	}
	return n
}

// applyDueLocked folds every pending event with Time ≤ t into shard state,
// in (Time, ingest order) — extraction is O(due·log pending), never a scan
// of the whole backlog. Cross-kind order within a batch is immaterial
// (admissions touch disjoint state until the Step that follows, which is why
// a trace replay matches the engine's workers-then-tasks batching); what
// matters is that events about the *same* entity — an offline followed by a
// re-online, a submit followed by a cancel — apply in the order produced.
//
//datawa:locked(mu)
func (d *Dispatcher) applyDueLocked(t float64) int {
	submits, due := 0, 0
	for len(d.pending) > 0 && d.pending[0].ev.Time <= t {
		pe := d.pending.pop()
		due++
		if c := d.cfg.Admission.MaxSubmitsPerEpoch; c > 0 && pe.ev.Kind == KindTaskSubmit {
			// Backpressure on the ingest path: past the per-epoch budget,
			// due submits defer one epoch (requeued at t+Step, so the loop
			// will not see them again this tick) or shed when too close to
			// their deadline for a deferral to ever be served.
			if submits >= c {
				// The capped submit bypasses applyLocked, so run the
				// first-application effects (forecast feed, ledger open)
				// here — without this a capped-then-deferred task would
				// never reach the forecaster.
				d.noteSubmitLocked(pe.ev.Task, pe.requeued)
				d.deferOrShedLocked(pe.ev.Task, t, "submit-cap")
				continue
			}
			submits++
		}
		d.applyLocked(pe.ev, t, pe.requeued)
	}
	return due
}

// noteSubmitLocked runs a task submit's first-application side effects: the
// global forecast feed and the ledger's chain-opening Submitted record. A
// requeued (deferred/displaced) submit already ran them on first application.
//
//datawa:locked(mu)
func (d *Dispatcher) noteSubmitLocked(s *core.Task, requeued bool) {
	if s == nil || requeued {
		return
	}
	if d.cfg.Forecast != nil {
		d.published = append(d.published, s)
	}
	d.recordTask(s.ID, obs.Submitted, -1, 0, "")
}

//datawa:locked(mu)
func (d *Dispatcher) applyLocked(ev Event, t float64, requeued bool) {
	ok := false
	switch ev.Kind {
	case KindWorkerOnline:
		if ev.Worker == nil {
			break
		}
		// A second online for a still-active id is rejected rather than
		// rebound: rebinding would orphan the live copy in its shard.
		if prev, dup := d.owner[ev.Worker.ID]; dup && d.shards[prev].HasWorker(ev.Worker.ID) {
			break
		}
		shard := d.shardOf(ev.Worker.Loc)
		if ok = d.shards[shard].AddWorker(ev.Worker, t); ok {
			d.owner[ev.Worker.ID] = shard
			// In auto-halo mode a longer reach widens the halo band: mark a
			// re-replication pass (run once, before this tick's Step) so
			// already-open boundary tasks become visible to the new
			// worker's shard.
			if d.haloEnabled() && d.cfg.HaloRadius == 0 && ev.Worker.Reach > d.maxReach {
				d.maxReach = ev.Worker.Reach
				d.reGhost = true
			}
		}
	case KindTaskSubmit:
		if ev.Task == nil {
			break
		}
		// Two live tasks with one id would let a shard's plan assign the id
		// twice (fatal) or make cancel/ownership ambiguous across shards.
		if prev, dup := d.taskOf[ev.Task.ID]; dup && d.shards[prev].HasOpenTask(ev.Task.ID) {
			break
		}
		// First-application side effects: the global forecast feed mirrors
		// the machine's own — every submit, including expired-on-arrival, is
		// demand the model should see — and the ledger chain opens.
		d.noteSubmitLocked(ev.Task, requeued)
		// Admission control: a submit hitting a full open pool displaces
		// the most deferrable open task, or itself defers or sheds — see
		// AdmissionConfig. The ≥ comparison is deliberate: at exactly
		// MaxOpenTasks the pool is full and the newcomer must displace or
		// yield.
		if c := d.cfg.Admission.MaxOpenTasks; c > 0 && len(d.taskOf) >= c {
			if !d.admitOverCapLocked(ev.Task, t) {
				ok = true // consumed: deferred or shed, both accounted
				break
			}
		}
		shard := d.shardOf(ev.Task.Loc)
		if d.shards[shard].AddTask(ev.Task, t) {
			d.taskOf[ev.Task.ID] = shard
			d.recordTask(ev.Task.ID, obs.Admitted, shard, 0, "")
			if d.cfg.Admission.MaxOpenTasks > 0 {
				d.victims.push(victim{exp: ev.Task.Exp, id: ev.Task.ID, task: ev.Task, shard: shard})
			}
			if d.haloEnabled() {
				d.replicateLocked(ev.Task, shard, t)
			}
		} else if ev.Task.Exp <= t {
			d.recordTask(ev.Task.ID, obs.Expired, shard, 0, "expired on arrival")
		}
		// Expired-on-arrival still changed state (it counted as expired),
		// so a rejected admission here is applied either way.
		ok = true
	case KindWorkerOffline:
		if shard, known := d.owner[ev.ID]; known {
			ok = d.shards[shard].RemoveWorker(ev.ID, t)
		}
	case KindTaskCancel:
		if shard, known := d.taskOf[ev.ID]; known {
			if ok = d.shards[shard].CancelTask(ev.ID); ok {
				d.recordTask(ev.ID, obs.Cancelled, shard, 0, "withdrawn by requester")
				// A withdrawn task must leave every replica pool before the
				// next planning instant, or a ghost shard could assign it.
				for _, g := range d.ghosts[ev.ID] {
					d.shards[g].DropTask(ev.ID)
				}
				delete(d.ghosts, ev.ID)
			}
		}
	case KindPosition:
		if shard, known := d.owner[ev.ID]; known {
			ok = d.shards[shard].UpdateWorkerPos(ev.ID, ev.Loc)
		}
	}
	if ok {
		d.applied.Add(1)
	} else {
		d.unroutable.Add(1)
	}
}

// PlanOf returns the current schedule of a worker, or false when the worker
// is unknown or already departed.
func (d *Dispatcher) PlanOf(workerID int) (stream.WorkerPlan, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	shard, ok := d.owner[workerID]
	if !ok {
		return stream.WorkerPlan{}, false
	}
	return d.shards[shard].PlanOf(workerID)
}

// Snapshot returns a consistent metrics snapshot.
func (d *Dispatcher) Snapshot() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := Metrics{
		Now:             d.clock,
		Epochs:          d.epochs,
		Ingested:        d.ingested.Load(),
		Applied:         d.applied.Load(),
		Unroutable:      d.unroutable.Load(),
		QueueDepth:      d.rings.depth() + len(d.pending),
		RoutedWorkers:   len(d.owner),
		RoutedTasks:     len(d.taskOf),
		RoutedGhosts:    len(d.ghosts),
		GhostCopies:     d.ghostCopies,
		GhostHits:       d.ghostHits,
		CommitConflicts: d.conflicts,
		Retractions:     d.retractions,
	}
	m.EpochP50, m.EpochP95, m.EpochP99 = d.lat.percentiles()
	m.Shed = d.shedIngest
	m.Deferred = d.deferred
	if d.gov != nil {
		m.TierDemotions, m.TierPromotions = d.gov.Counters()
		m.WorstTier = d.gov.Worst()
	}
	for i, sh := range d.shards {
		st := sh.Stats()
		sm := ShardMetrics{
			Shard: i, Workers: sh.Workers(), Open: sh.OpenTasks(), Stats: st,
		}
		if d.tiered != nil {
			sm.Tier = d.tiered[i].tier
			sm.TierName = d.tiered[i].Name()
		}
		m.Shards = append(m.Shards, sm)
		m.Assigned += st.Assigned
		m.Expired += st.Expired
		m.Cancelled += st.Cancelled
		m.Repositions += st.Repositions
		m.Shed += int64(st.Shed)
		m.PlanCalls += st.PlanCalls
		m.PlanTime += st.PlanTime
	}
	return m
}

// Quiesce runs planning epochs until the dispatcher is fully drained — no
// queued or pending events, no open tasks — and, when the governor is on,
// every shard has recovered to the top planner tier; maxEpochs bounds the
// loop. It reports whether the drained-and-recovered state was reached.
// After a successful Quiesce every submitted task is terminal, so the
// conservation identity assigned + expired + cancelled + shed == submitted
// holds exactly — the benchsuite's chaos gate asserts it.
func (d *Dispatcher) Quiesce(maxEpochs int) bool {
	for i := 0; i <= maxEpochs; i++ {
		d.mu.Lock()
		d.drainLocked()
		done := d.rings.depth() == 0 && len(d.pending) == 0 && len(d.taskOf) == 0
		if done && d.gov != nil {
			for s := range d.shards {
				if d.gov.TierOf(s) != 0 {
					done = false
					break
				}
			}
		}
		if !done && i < maxEpochs {
			d.tickLocked()
		}
		d.mu.Unlock()
		if done {
			return true
		}
	}
	return false
}

// nextSyntheticID allocates a server-assigned task id, above every
// client-chosen one.
func (d *Dispatcher) nextSyntheticID() int { return int(d.synthID.Add(1)) }

// pendingEvent orders drained events by effect time, ingest order breaking
// ties, so due extraction is logarithmic in the backlog size.
type pendingEvent struct {
	ev  Event
	seq int64
	// requeued marks an admission-control deferral: the event already went
	// through first-application side effects (forecast feed) once.
	requeued bool
}

// eventHeap is a concrete min-heap by (Time, seq). Hand-rolled rather than
// container/heap: the interface's Push(any)/Pop() box every element, which
// was one heap allocation per ingested event on the steady-state path the
// alloc gates pin at zero.
type eventHeap []pendingEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].ev.Time != h[j].ev.Time {
		return h[i].ev.Time < h[j].ev.Time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(pe pendingEvent) {
	*h = append(*h, pe)
	s := *h
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() pendingEvent {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = pendingEvent{} // release the Task/Worker pointers
	*h = s[:n]
	// Sift down.
	s = s[:n]
	for i := 0; ; {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && s.less(r, kid) {
			kid = r
		}
		if !s.less(kid, i) {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		i = kid
	}
	return top
}

// latencyRing keeps the last n epoch latencies for percentile snapshots.
type latencyRing struct {
	buf  []time.Duration
	next int
	full bool
}

func newLatencyRing(n int) *latencyRing { return &latencyRing{buf: make([]time.Duration, n)} }

func (r *latencyRing) add(d time.Duration) {
	r.buf[r.next] = d
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// percentiles returns p50/p95/p99 over the retained window (zeros when no
// epoch has run yet).
func (r *latencyRing) percentiles() (p50, p95, p99 time.Duration) {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), r.buf[:n]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(n-1))
		return s[i]
	}
	return at(0.50), at(0.95), at(0.99)
}
