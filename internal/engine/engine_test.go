package engine

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testSpecs builds a small three-cell run.
func testSpecs(root uint64) []Spec {
	base := core.Options{Horizon: 2 * sim.Hour}
	return []Spec{
		NewSpec(0, workload.Profile2019("a", 40), base, root),
		NewSpec(1, workload.Profile2019("b", 40), base, root),
		NewSpec(2, workload.Profile2011(50), base, root),
	}
}

// runSpecs runs specs as one plan and returns their results in spec
// order.
func runSpecs(t *testing.T, specs []Spec, parallelism int) []*core.CellResult {
	t.Helper()
	results := make([]*core.CellResult, len(specs))
	p := specPlan(specs, parallelism)
	p.OnResult = func(i int, res *core.CellResult) { results[i] = res }
	if err := Run(p); err != nil {
		t.Fatal(err)
	}
	return results
}

// retain attaches a MemTrace built from core.TraceMeta to every spec
// and returns them in spec order.
func retain(specs []Spec) []*trace.MemTrace {
	traces := make([]*trace.MemTrace, len(specs))
	for i := range specs {
		traces[i] = trace.NewMemTrace(core.TraceMeta(specs[i].Profile, specs[i].Options))
		specs[i].Options.Sinks = append(specs[i].Options.Sinks, traces[i])
	}
	return traces
}

// sameTrace compares every row of two traces.
func sameTrace(t *testing.T, cell string, a, b *trace.MemTrace) {
	t.Helper()
	if !reflect.DeepEqual(a.CollectionEvents, b.CollectionEvents) {
		t.Fatalf("cell %s: collection events differ", cell)
	}
	if !reflect.DeepEqual(a.InstanceEvents, b.InstanceEvents) {
		t.Fatalf("cell %s: instance events differ", cell)
	}
	if !reflect.DeepEqual(a.UsageRecords, b.UsageRecords) {
		t.Fatalf("cell %s: usage records differ", cell)
	}
	if !reflect.DeepEqual(a.MachineEvents, b.MachineEvents) {
		t.Fatalf("cell %s: machine events differ", cell)
	}
}

func TestParallelismDoesNotChangeTraces(t *testing.T) {
	serialSpecs := testSpecs(7)
	serialTraces := retain(serialSpecs)
	serial := runSpecs(t, serialSpecs, 1)
	for _, par := range []int{2, 8} {
		parallelSpecs := testSpecs(7)
		parallelTraces := retain(parallelSpecs)
		parallel := runSpecs(t, parallelSpecs, par)
		if len(parallel) != len(serial) {
			t.Fatalf("result count %d", len(parallel))
		}
		for i := range serial {
			sameTrace(t, serial[i].Profile.Name, serialTraces[i], parallelTraces[i])
			if serial[i].Rows != parallel[i].Rows {
				t.Fatalf("cell %d row counts differ", i)
			}
		}
	}
}

func TestOnResultStreamsInSpecOrder(t *testing.T) {
	var order []int
	p := specPlan(testSpecs(3), 8)
	p.OnResult = func(i int, res *core.CellResult) {
		order = append(order, i)
		if res == nil || res.Rows.Total() == 0 {
			t.Errorf("empty result at %d", i)
		}
	}
	if err := Run(p); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("callbacks: %v", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	// The contract is stability: these values must never change, or every
	// regenerated trace silently shifts.
	if got := DeriveSeed(1, 0); got != DeriveSeed(1, 0) {
		t.Fatal("unstable")
	}
	seen := map[uint64]int{}
	for root := uint64(0); root < 8; root++ {
		for cell := 0; cell < 64; cell++ {
			s := DeriveSeed(root, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %d (%d)", s, prev)
			}
			seen[s] = cell
		}
	}
}

func TestIDBaseDisjoint(t *testing.T) {
	if IDBase(0) != 0 || IDBase(1) != 1<<32 || IDBase(9) != 9<<32 {
		t.Fatalf("IDBase values: %d %d %d", IDBase(0), IDBase(1), IDBase(9))
	}
}

func TestEmptyRun(t *testing.T) {
	err := Run(Plan{Spec: func(int) Spec {
		t.Error("Spec called for an empty plan")
		return Spec{}
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpecSinksPerCell pins the per-cell sink idiom: the Spec callback
// gives every cell its own sink, never shared across cells, and counts per cell
// match the engine's row accounting at full parallelism — the
// configuration the race detector exercises in CI.
func TestSpecSinksPerCell(t *testing.T) {
	specs := testSpecs(9)
	counters := make([]*trace.CountingSink, len(specs))
	rows := make([]trace.RowCounts, len(specs))
	err := Run(Plan{
		Cells: len(specs), Parallelism: len(specs),
		Spec: func(i int) Spec {
			s := specs[i]
			if i != 1 { // spec 1 keeps its pipeline unchanged
				counters[i] = &trace.CountingSink{}
				s.Options.Sinks = append(s.Options.Sinks, counters[i])
			}
			return s
		},
		OnResult: func(i int, res *core.CellResult) { rows[i] = res.Rows },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if i == 1 {
			continue
		}
		if counters[i].Counts() != rows[i] {
			t.Fatalf("cell %d: sink saw %+v, engine counted %+v", i, counters[i].Counts(), rows[i])
		}
	}
}

// TestDeriveGridSeed pins the 2-D sweep seed contract: composition of
// DeriveSeed (so replicate roots and cell seeds follow the published
// 1-D contract), collision-freedom over a realistic grid, and — by
// construction — independence from anything but (root, run, cell).
func TestDeriveGridSeed(t *testing.T) {
	if got, want := DeriveGridSeed(7, 3, 5), DeriveSeed(DeriveSeed(7, 3), 5); got != want {
		t.Fatalf("DeriveGridSeed(7,3,5)=%d, want DeriveSeed composition %d", got, want)
	}
	seen := make(map[uint64][2]int)
	for run := 0; run < 64; run++ {
		for cell := 0; cell < 16; cell++ {
			s := DeriveGridSeed(1, run, cell)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d)", run, cell, prev[0], prev[1])
			}
			seen[s] = [2]int{run, cell}
		}
	}
}

// TestSlowOnResultStallsOnlyDeliveringWorker pins the delivery
// invariant: while the delivering goroutine is stuck inside a slow
// OnResult callback, the pool keeps simulating. The callback for cell 0
// refuses to return until every cell's Spec has been called — which can
// only happen if the workers kept draining the queue.
func TestSlowOnResultStallsOnlyDeliveringWorker(t *testing.T) {
	const n = 4
	started := make(chan int, n)
	base := core.Options{Horizon: sim.Hour}
	var order []int
	err := Run(Plan{
		Cells: n, Parallelism: 2,
		Spec: func(i int) Spec {
			started <- i
			return NewSpec(i, workload.Profile2019("a", 20), base, 5)
		},
		OnResult: func(i int, res *core.CellResult) {
			order = append(order, i)
			if i != 0 {
				return
			}
			deadline := time.After(30 * time.Second)
			for seen := 0; seen < n; {
				select {
				case <-started:
					seen++
				case <-deadline:
					t.Error("pool stalled: not every cell started while OnResult(0) was blocked")
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d results, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order delivery under slow consumer: %v", order)
		}
	}
}

// TestRunSameResultsAtParallelism1And8 runs one lazily built plan at
// parallelism 1 and 8: the same per-cell row counts in the same order,
// and every cell's Spec called exactly once.
func TestRunSameResultsAtParallelism1And8(t *testing.T) {
	const n = 6
	base := core.Options{Horizon: sim.Hour}
	var want []trace.RowCounts
	for _, par := range []int{1, 8} {
		calls := make([]int32, n)
		var order []int
		var rows []trace.RowCounts
		err := Run(Plan{
			Cells: n, Parallelism: par,
			Spec: func(i int) Spec {
				atomic.AddInt32(&calls[i], 1)
				return NewSpec(i, workload.Profile2019("a", 20), base, 11)
			},
			OnResult: func(i int, res *core.CellResult) {
				order = append(order, i)
				rows = append(rows, res.Rows)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != n {
			t.Fatalf("par %d: delivered %d results, want %d", par, len(order), n)
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("par %d: out-of-order delivery %v", par, order)
			}
			if calls[i] != 1 {
				t.Fatalf("par %d: cell %d Spec called %d times", par, i, calls[i])
			}
		}
		if want == nil {
			want = rows
		} else if !reflect.DeepEqual(rows, want) {
			t.Fatalf("par %d: rows %+v, want %+v", par, rows, want)
		}
	}
}

// TestRunCellPanic forces one of core.Run's deliberate panics (an
// unknown placement policy) in cells 2 and 4 of six. At any parallelism
// Run returns the CellError of cell 2 and delivers exactly cells 0 and 1.
func TestRunCellPanic(t *testing.T) {
	base := core.Options{Horizon: sim.Hour}
	specs := make([]Spec, 6)
	for i, cell := range []string{"a", "b", "c", "d", "e", "f"} {
		specs[i] = NewSpec(i, workload.Profile2019(cell, 20), base, 13)
	}
	specs[2].Options.Policy = "no-such-policy"
	specs[4].Options.Policy = "no-such-policy"
	for _, par := range []int{1, 2, 8} {
		var delivered []int
		var built atomic.Int32
		err := Run(Plan{
			Cells: len(specs), Parallelism: par,
			Spec: func(i int) Spec {
				built.Add(1)
				return specs[i]
			},
			OnResult: func(i int, _ *core.CellResult) { delivered = append(delivered, i) },
		})
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("par %d: got error %v, want a *CellError", par, err)
		}
		if ce.Index != 2 || ce.Profile != "c" || ce.Seed != specs[2].Options.Seed {
			t.Fatalf("par %d: CellError names cell %d (%q, seed %d), want cell 2 (%q, seed %d)",
				par, ce.Index, ce.Profile, ce.Seed, "c", specs[2].Options.Seed)
		}
		if !strings.Contains(ce.Error(), "no-such-policy") {
			t.Fatalf("par %d: CellError lacks the panic value: %v", par, ce)
		}
		if !reflect.DeepEqual(delivered, []int{0, 1}) {
			t.Fatalf("par %d: OnResult saw cells %v, want [0 1]", par, delivered)
		}
		if par == 1 && built.Load() != 3 {
			t.Fatalf("par 1: %d cells built, want 3 (no dispatch after the failure)", built.Load())
		}
	}
}

// TestOnResultPanicReachesCaller checks a panic in OnResult surfaces on
// Run's own goroutine, where the caller can recover it.
func TestOnResultPanicReachesCaller(t *testing.T) {
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
	}()
	p := specPlan(testSpecs(5), 2)
	p.OnResult = func(int, *core.CellResult) { panic("boom") }
	Run(p)
	t.Fatal("Run returned despite the OnResult panic")
}

// TestDeriveSeedFleetScaleDistinct extends the seed-contract coverage to
// fleet-sized index ranges: thousands of cells per root, grid seeds
// included, all pairwise distinct — a collision would silently correlate
// two cells' worlds.
func TestDeriveSeedFleetScaleDistinct(t *testing.T) {
	seen := make(map[uint64]string, 20000)
	record := func(s uint64, what string) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", what, prev)
		}
		seen[s] = what
	}
	for _, root := range []uint64{1, 42} {
		for cell := 0; cell < 4096; cell++ {
			record(DeriveSeed(root, cell), "plain")
		}
	}
	for run := 0; run < 16; run++ {
		for cell := 0; cell < 512; cell++ {
			record(DeriveGridSeed(7, run, cell), "grid")
		}
	}
}

// TestNewGridSpec checks grid specs carry the grid seed and the flat
// index's disjoint ID space.
func TestNewGridSpec(t *testing.T) {
	p := workload.Profile2019("a", 10)
	base := core.Options{Horizon: 2 * sim.Hour, DisableAutopilot: true}
	spec := NewGridSpec(2, 4, 23, p, base, 9)
	if spec.Options.Seed != DeriveGridSeed(9, 2, 4) {
		t.Fatalf("grid spec seed %d", spec.Options.Seed)
	}
	if spec.Options.IDBase != IDBase(23) {
		t.Fatalf("grid spec ID base %d", spec.Options.IDBase)
	}
	if spec.Profile != p || !spec.Options.DisableAutopilot || spec.Options.Horizon != 2*sim.Hour {
		t.Fatal("grid spec dropped base options or profile")
	}
}
