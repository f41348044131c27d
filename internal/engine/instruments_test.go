package engine

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// specPlan is a plan over the given specs.
func specPlan(specs []Spec, parallelism int) Plan {
	return Plan{
		Cells: len(specs), Parallelism: parallelism,
		Spec: func(i int) Spec { return specs[i] },
	}
}

// rollup runs the three-cell test suite instrumented at the given
// parallelism and returns the run registry's Prometheus rendering,
// minus wall-clock series.
func rollup(t *testing.T, parallelism int) string {
	t.Helper()
	reg := metrics.NewRegistry()
	p := specPlan(testSpecs(7), parallelism)
	p.Metrics = reg
	if err := Run(p); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRollupByteIdenticalAcrossParallelism is the determinism gate for
// the metrics rollup itself: per-cell registries merge in spec order on
// the serialized OnResult path, so the run-level snapshot — quantile
// estimates included — is byte-identical at any parallelism.
func TestRollupByteIdenticalAcrossParallelism(t *testing.T) {
	serial := rollup(t, 1)
	for _, par := range []int{2, 8} {
		if got := rollup(t, par); got != serial {
			t.Fatalf("rollup at parallelism %d differs from serial:\n--- p1 ---\n%s\n--- p%d ---\n%s",
				par, serial, par, got)
		}
	}
}

func TestRollupCarriesInstrumentSeries(t *testing.T) {
	out := rollup(t, 4)
	for _, series := range []string{
		"sched_tasks_placed_total", "sched_placement_attempts_total",
		"sim_events_total", "usage_windows_total",
		"trace_rows_instances_total", "sched_pending_queue",
	} {
		if !bytes.Contains([]byte(out), []byte(series)) {
			t.Errorf("rollup missing series %q", series)
		}
	}
	// Progress counters settle: all cells started and done.
	for _, want := range []string{
		"run_cells_total 3", "run_cells_started_total 3", "run_cells_done_total 3",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("rollup missing %q:\n%s", want, out)
		}
	}
}

// TestCellsGetOnlyPlanInstruments checks the engine owns the
// observe-only knobs: instruments a spec carries itself never reach its
// cell, with or without plan-level instruments.
func TestCellsGetOnlyPlanInstruments(t *testing.T) {
	for _, planned := range []bool{false, true} {
		stray := metrics.NewRegistry()
		var strayOut bytes.Buffer
		specs := testSpecs(7)
		for i := range specs {
			specs[i].Options.Metrics = stray
			specs[i].Options.Progress = &strayOut
			specs[i].Options.Timeline = metrics.NewTimeline()
		}
		p := specPlan(specs, 2)
		if planned {
			p.Metrics = metrics.NewRegistry()
		}
		if err := Run(p); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := stray.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 || strayOut.Len() != 0 {
			t.Fatalf("planned=%v: a cell wrote to its spec's own instruments:\n%s%s", planned, buf.String(), strayOut.String())
		}
		for i := range specs {
			if specs[i].Options.Timeline.Len() != 0 {
				t.Fatalf("planned=%v: cell %d recorded into its spec's own timeline", planned, i)
			}
		}
	}
}

func TestTimelineRecordsCellSpans(t *testing.T) {
	tl := metrics.NewTimeline()
	reduced := 0
	p := specPlan(testSpecs(7), 2)
	p.Timeline = tl
	p.OnResult = func(int, *core.CellResult) { reduced++ }
	if err := Run(p); err != nil {
		t.Fatal(err)
	}
	if reduced != 3 {
		t.Fatalf("caller OnResult ran %d times", reduced)
	}
	// One warmup+run+flush trio per cell (from core), one "cell" span and
	// one "reduce" span per cell (from the engine).
	if got := tl.Len(); got < 3*3 {
		t.Fatalf("timeline has %d spans, want at least 9", got)
	}
}

// lockedBuffer is a bytes.Buffer safe for the concurrent progress
// writes of several workers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestProgressLines checks the progress seam: the first line is written
// as the first cell starts — before its Spec is built, which is what a
// set-up timer reading the first line relies on — and the last line
// reports every cell done, at any parallelism.
func TestProgressLines(t *testing.T) {
	for _, par := range []int{1, 8} {
		var out lockedBuffer
		specs := testSpecs(7)
		var first string
		p := specPlan(specs, par)
		p.Label, p.Progress = "suite", &out
		p.Spec = func(i int) Spec {
			if i == 0 && par == 1 {
				first = out.String()
			}
			return specs[i]
		}
		if err := Run(p); err != nil {
			t.Fatal(err)
		}
		if par == 1 && !strings.HasPrefix(first, "suite: 0/3 done, 1 in flight, ") {
			t.Fatalf("first progress line %q, want it written as cell 0 starts", first)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "suite: 3/3 done, 0 in flight, ") || strings.Contains(last, "ETA") {
			t.Fatalf("par %d: final progress line %q", par, last)
		}
	}
}

// TestStalledScrapeDoesNotBlockOnResult wires a real run to a live
// server and stalls a scrape mid-run: the engine's OnResult path (where
// per-cell registries merge into the scraped rollup) must still drain
// at full speed, because handlers render snapshots into local buffers
// and never hold the registry lock while writing to a client.
func TestStalledScrapeDoesNotBlockOnResult(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := metrics.StartServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}

	p := specPlan(testSpecs(7), 2)
	p.Metrics = reg
	done := make(chan error)
	go func() { done <- Run(p) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("instrumented run blocked behind a stalled scrape")
	}
	if got := reg.Counter("run_cells_done_total").Value(); got != 3 {
		t.Fatalf("run_cells_done_total = %d, want 3", got)
	}
}

// TestRollupMatchesSchedulerStats cross-checks one rolled-up series
// against the ground truth the per-cell results report.
func TestRollupMatchesSchedulerStats(t *testing.T) {
	reg := metrics.NewRegistry()
	var placed int64
	p := specPlan(testSpecs(7), 0)
	p.Metrics = reg
	p.OnResult = func(_ int, res *core.CellResult) { placed += int64(res.Sched.TasksPlaced) }
	if err := Run(p); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sched_tasks_placed_total").Value(); got != placed || placed == 0 {
		t.Fatalf("sched_tasks_placed_total = %d, results say %d", got, placed)
	}
}
