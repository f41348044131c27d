package streaming

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixture is one simulated cell with both a streaming reducer attached
// to the live sink pipeline and full MemTrace retention, so every reducer
// product can be compared against the walker oracle (posthoc_test.go) on
// the exact same rows.
type fixture struct {
	tr  *trace.MemTrace
	red *CellReducer
	at  sim.Time
}

var (
	fixOnce          sync.Once
	fix2019, fix2011 *fixture

	suiteOnce  sync.Once
	suiteCells []*fixture
)

// attachFixture attaches a live reducer and a retaining MemTrace to a
// cell's options and returns them as the cell's fixture.
func attachFixture(p *workload.CellProfile, opts *core.Options) *fixture {
	meta := core.TraceMeta(p, *opts)
	f := &fixture{tr: trace.NewMemTrace(meta), red: NewCellReducer(Config{Meta: meta, SnapshotAt: meta.Duration / 2}),
		at: meta.Duration / 2}
	opts.Sinks = append(opts.Sinks, f.red, f.tr)
	return f
}

func runFixture(p *workload.CellProfile, horizon sim.Time, seed uint64) *fixture {
	opts := core.Options{Horizon: horizon, Seed: seed}
	f := attachFixture(p, &opts)
	core.Run(p, opts)
	return f
}

func fixtures(t *testing.T) (*fixture, *fixture) {
	t.Helper()
	fixOnce.Do(func() {
		fix2019 = runFixture(workload.Profile2019("a", 120), 10*sim.Hour, 42)
		fix2011 = runFixture(workload.Profile2011(120), 10*sim.Hour, 43)
	})
	return fix2019, fix2011
}

// suiteFixtures simulates the nine suite cells — the 2011 cell, then
// 2019 a–h — with the seeds and ID spaces the experiments suite assigns
// at 60/50 machines, 6 hours and root seed 3 (the differential report
// tests' scale), one live reducer per cell.
func suiteFixtures(t *testing.T) []*fixture {
	t.Helper()
	suiteOnce.Do(func() {
		const horizon, root = 6 * sim.Hour, 3
		profiles := []*workload.CellProfile{workload.Profile2011(60)}
		for _, cell := range workload.Cells2019() {
			profiles = append(profiles, workload.Profile2019(cell, 50))
		}
		suiteCells = make([]*fixture, len(profiles))
		err := engine.Run(engine.Plan{
			Cells: len(profiles),
			Spec: func(i int) engine.Spec {
				spec := engine.NewSpec(i, profiles[i], core.Options{Horizon: horizon}, root)
				suiteCells[i] = attachFixture(spec.Profile, &spec.Options)
				return spec
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	return suiteCells
}

// diff asserts got == want via reflect.DeepEqual with a labelled failure.
func diff(t *testing.T, label string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: streaming reducer diverges from the walker oracle\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestReducerMatchesPostHoc compares every reducer product against the
// walker oracle on all nine suite cells plus two larger cells.
func TestReducerMatchesPostHoc(t *testing.T) {
	f19, f11 := fixtures(t)
	cells := append([]*fixture{f19, f11}, suiteFixtures(t)...)
	if len(cells) != 11 {
		t.Fatalf("%d fixture cells, want 11", len(cells))
	}
	for i, f := range cells {
		cell := fmt.Sprintf("#%d %s", i, f.tr.Meta.Cell)
		diff(t, cell+" shapes", f.red.MachineShapes(), MachineShapes(f.tr))
		diff(t, cell+" usage series", f.red.UsageSeries(), UsageSeries(f.tr))
		diff(t, cell+" allocation series", f.red.AllocationSeries(), AllocationSeries(f.tr))
		diff(t, cell+" usage tier averages", f.red.AverageUsageByTier(2*sim.Hour),
			AverageUsageByTier(f.tr, 2*sim.Hour))
		diff(t, cell+" allocation tier averages", f.red.AverageAllocationByTier(2*sim.Hour),
			AverageAllocationByTier(f.tr, 2*sim.Hour))
		cpu, mem := f.red.MachineUtilization()
		wantCPU, wantMem := MachineUtilization(f.tr, f.at)
		diff(t, cell+" utilization cpu", cpu, wantCPU)
		diff(t, cell+" utilization mem", mem, wantMem)
		diff(t, cell+" transitions", f.red.Transitions(), Transitions(f.tr))
		diff(t, cell+" inventory", f.red.Inventory(), InventoryOf(f.tr))
		diff(t, cell+" allocset accum", f.red.AllocSetAccum(), AllocSetAccumOf(f.tr))
		diff(t, cell+" termination accum", f.red.TerminationAccum(), TerminationAccumOf(f.tr))
		diff(t, cell+" rates", f.red.Rates(), RatesOf(f.tr))
		diff(t, cell+" delays", f.red.Delays(), DelaysOf(f.tr))
		diff(t, cell+" tasks per job", f.red.TasksPerJob(), TasksPerJobOf(f.tr))
		diff(t, cell+" integrals", f.red.UsageIntegrals(), JobUsageIntegralsOf(f.tr))
		diff(t, cell+" slack", f.red.SlackSamples(), SlackSamplesOf(f.tr))
	}
}

// TestReplayMatchesLive pins the ordering contract: replaying a retained
// trace table-by-table through a fresh reducer yields the same state as
// consuming the live interleaved stream.
func TestReplayMatchesLive(t *testing.T) {
	f19, _ := fixtures(t)
	replayed := Replay(f19.tr, Config{Meta: f19.tr.Meta, SnapshotAt: f19.at})
	diff(t, "usage series", replayed.UsageSeries(), f19.red.UsageSeries())
	diff(t, "transitions", replayed.Transitions(), f19.red.Transitions())
	diff(t, "rates", replayed.Rates(), f19.red.Rates())
	diff(t, "integrals", replayed.UsageIntegrals(), f19.red.UsageIntegrals())
	diff(t, "allocset accum", replayed.AllocSetAccum(), f19.red.AllocSetAccum())
	cpu, mem := replayed.MachineUtilization()
	liveCPU, liveMem := f19.red.MachineUtilization()
	diff(t, "utilization cpu", cpu, liveCPU)
	diff(t, "utilization mem", mem, liveMem)
}

func TestRowAfterFinalizePanics(t *testing.T) {
	r := NewCellReducer(Config{Meta: trace.Meta{Duration: sim.Hour}})
	r.CollectionEvent(trace.CollectionEvent{Collection: 1, Type: trace.EventSubmit})
	_ = r.Transitions() // finalizes
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row after finalize")
		}
	}()
	r.CollectionEvent(trace.CollectionEvent{Collection: 1, Type: trace.EventFinish})
}

func TestReducerStateIsBounded(t *testing.T) {
	f19, _ := fixtures(t)
	// The reducer must have dropped the usage table: its state tracks
	// collections and instances, not rows.
	if len(f19.red.colls) == 0 || len(f19.red.insts) == 0 {
		t.Fatalf("reducer state empty: %s", f19.red.Counts())
	}
	if rows := len(f19.tr.UsageRecords); rows <= len(f19.red.colls) {
		t.Skipf("fixture too small to demonstrate reduction (usage rows %d)", rows)
	}
}
