package benchsuite

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyOptions is a seconds-fast suite slice used by every test here.
func tinyOptions() Options {
	return Options{
		Scenarios: []string{"yueche", "multi-city"},
		Scales:    []float64{0.3},
		Methods:   []string{"Greedy"},
		Step:      4,
		Shards:    2,
	}
}

func TestSuiteRunsAndValidates(t *testing.T) {
	r, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Results), 2; got != want {
		t.Fatalf("suite produced %d cells, want %d", got, want)
	}
	for _, c := range r.Results {
		if c.Offline.PlanCalls == 0 || c.Live.Epochs == 0 {
			t.Errorf("%s: empty measurement %+v", c.Scenario, c)
		}
		if c.Live.EventsPerSec <= 0 || c.Offline.EventsPerSec <= 0 {
			t.Errorf("%s: missing throughput", c.Scenario)
		}
	}
}

// TestSuiteAssignmentRatesDeterministic pins the property Compare relies on:
// re-running the same suite slice reproduces assignment outcomes exactly,
// so only genuine regressions trip the CI gate.
func TestSuiteAssignmentRatesDeterministic(t *testing.T) {
	first, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Results {
		a, b := first.Results[i], second.Results[i]
		if a.Offline.Assigned != b.Offline.Assigned || a.Live.Assigned != b.Live.Assigned {
			t.Fatalf("%s: assigned %d/%d vs %d/%d across identical runs",
				a.Scenario, a.Offline.Assigned, a.Live.Assigned, b.Offline.Assigned, b.Live.Assigned)
		}
	}
	if n, err := Compare(first, second, 0.10, 0.50); err != nil || n != 2 {
		t.Fatalf("self-compare: %d cells, err %v", n, err)
	}
}

// setOfflineRate rescales one cell's offline assignment rate, keeping the
// derived fidelity_gap consistent so only the rate gate is exercised.
func setOfflineRate(c *Cell, rate float64) {
	c.Offline.AssignmentRate = rate
	c.FidelityGap = c.Offline.AssignmentRate - c.Live.AssignmentRate
}

func TestCompareDetectsRegression(t *testing.T) {
	base, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.Results = append([]Cell(nil), base.Results...)
	setOfflineRate(&cur.Results[0], base.Results[0].Offline.AssignmentRate*0.5)
	if _, err := Compare(base, &cur, 0.10, 0.50); err == nil {
		t.Fatal("halved assignment rate must fail the gate")
	} else if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A drop inside the tolerance passes.
	setOfflineRate(&cur.Results[0], base.Results[0].Offline.AssignmentRate*0.95)
	if _, err := Compare(base, &cur, 0.10, 0.50); err != nil {
		t.Fatalf("5%% drop within 10%% tolerance must pass: %v", err)
	}
}

// TestCompareDetectsEpochP95Blowup pins the latency gate: an epoch-p95
// regression beyond the separate tolerance fails even though every
// assignment rate is unchanged — but only for cells whose baseline p95 is
// above the one-millisecond noise floor.
func TestCompareDetectsEpochP95Blowup(t *testing.T) {
	run, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Lift the baseline cell above the noise floor so the gate applies.
	base := *run
	base.Results = append([]Cell(nil), run.Results...)
	base.Results[0].Live.EpochP95NS = 20_000_000
	base.Results[0].Live.EpochP99NS = 20_000_001
	cur := base
	cur.Results = append([]Cell(nil), base.Results...)
	cur.Results[0].Live.EpochP95NS = base.Results[0].Live.EpochP95NS * 3
	cur.Results[0].Live.EpochP99NS = cur.Results[0].Live.EpochP95NS + 1
	if _, err := Compare(&base, &cur, 0.10, 0.50); err == nil {
		t.Fatal("3x epoch p95 must fail the 50% growth gate")
	} else if !strings.Contains(err.Error(), "epoch p95") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The same report passes with the latency gate disabled.
	if _, err := Compare(&base, &cur, 0.10, 0); err != nil {
		t.Fatalf("disabled latency gate must pass: %v", err)
	}
	// Growth within tolerance passes.
	cur.Results[0].Live.EpochP95NS = base.Results[0].Live.EpochP95NS * 14 / 10
	cur.Results[0].Live.EpochP99NS = cur.Results[0].Live.EpochP95NS + 1
	if _, err := Compare(&base, &cur, 0.10, 0.50); err != nil {
		t.Fatalf("40%% p95 growth within 50%% tolerance must pass: %v", err)
	}
	// A lightweight baseline gates against the 10 ms floor, not the raw
	// value: multi-x growth inside the floor's allowance is host noise and
	// passes, but a blowup past the floor still fails.
	tiny := base
	tiny.Results = append([]Cell(nil), base.Results...)
	tiny.Results[0].Live.EpochP95NS = 400_000
	tiny.Results[0].Live.EpochP99NS = 400_001
	cur.Results[0].Live.EpochP95NS = 4_000_000 // 10x, within max(baseline,10ms)*1.5
	cur.Results[0].Live.EpochP99NS = 4_000_001
	if _, err := Compare(&tiny, &cur, 0.10, 0.50); err != nil {
		t.Fatalf("sub-floor noise must not gate on p95: %v", err)
	}
	cur.Results[0].Live.EpochP95NS = 500_000_000 // 0.4ms → 500ms blowup
	cur.Results[0].Live.EpochP99NS = 500_000_001
	if _, err := Compare(&tiny, &cur, 0.10, 0.50); err == nil {
		t.Fatal("sub-floor baseline blowing up past the floor must fail the gate")
	}
}

func TestCompareRejectsDisjointReports(t *testing.T) {
	base, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.Results = append([]Cell(nil), base.Results...)
	for i := range cur.Results {
		cur.Results[i].Scenario = "renamed-" + cur.Results[i].Scenario
	}
	if _, err := Compare(base, &cur, 0.10, 0.50); err == nil {
		t.Fatal("disjoint cell sets must not silently pass")
	}
}

func TestValidateRejectsMalformedReports(t *testing.T) {
	good, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "datawa-bench-suite/0" }},
		{"no results", func(r *Report) { r.Results = nil }},
		{"rate out of range", func(r *Report) { r.Results[0].Offline.AssignmentRate = 1.5 }},
		{"fidelity gap inconsistent", func(r *Report) { r.Results[0].FidelityGap += 0.5 }},
		{"conservation", func(r *Report) { r.Results[0].Live.Assigned = r.Results[0].Tasks + 1 }},
		{"percentile order", func(r *Report) { r.Results[0].Live.EpochP50NS = r.Results[0].Live.EpochP99NS + 1 }},
		{"missing scenario", func(r *Report) { r.Results[0].Scenario = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *good
			bad.Results = append([]Cell(nil), good.Results...)
			tc.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Fatal("malformed report passed validation")
			}
		})
	}
}

// TestValidateAcceptsLegacySchema keeps committed v1 snapshots usable as
// -compare baselines: the legacy tag passes validation, and its zero-valued
// fidelity_gap fields are not held to the v2 consistency check.
func TestValidateAcceptsLegacySchema(t *testing.T) {
	r, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	legacy := *r
	legacy.Schema = schemaV1
	legacy.Results = append([]Cell(nil), r.Results...)
	for i := range legacy.Results {
		legacy.Results[i].FidelityGap = 0 // v1 reports never carried the field
	}
	if err := legacy.Validate(); err != nil {
		t.Fatalf("legacy v1 schema must validate: %v", err)
	}
	// v2 carried fidelity_gap and is held to its consistency check.
	v2 := *r
	v2.Schema = legacySchemas[0]
	if err := v2.Validate(); err != nil {
		t.Fatalf("legacy v2 schema must validate: %v", err)
	}
}

// TestCommittedSnapshotsValidate loads every BENCH_*.json committed at the
// repository root — the trajectory snapshots -compare uses as baselines —
// and holds each to Validate under its own (current or legacy) schema.
func TestCommittedSnapshotsValidate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json snapshots at the repository root")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var r Report
		if err := json.Unmarshal(b, &r); err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
			continue
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
		}
	}
}

// TestCompareFlagsMissingCells pins the coverage gate: a baseline cell
// inside the candidate's scenario/scale/method axes must be present in the
// candidate, while cells outside those axes (a 1x CI run against a 1x+5x
// snapshot) stay legitimately skippable.
func TestCompareFlagsMissingCells(t *testing.T) {
	base, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same axes, one cell silently dropped: error.
	cur := *base
	cur.Results = append([]Cell(nil), base.Results[:1]...)
	if _, err := Compare(base, &cur, 0.10, 0.50); err == nil {
		t.Fatal("dropped in-axes cell must fail the compare")
	} else if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A genuinely narrowed run: the dropped cell's scenario is absent from
	// the candidate's results entirely, so it is outside the candidate's
	// scenario axis and the compare passes on the remaining overlap.
	opts := tinyOptions()
	opts.Scenarios = opts.Scenarios[:1]
	narrow, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Compare(base, narrow, 0.10, 0.50); err != nil || n != 1 {
		t.Fatalf("narrowed-axes compare: %d cells, err %v", n, err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	opts := tinyOptions()
	opts.Scenarios = []string{"atlantis"}
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown scenario must error")
	}
}
