// These tests check the progress lines of multi-cell runs from the
// outside: engine.Run counts cells started and done and prints
// "<label>: d/n done, k in flight, …" to Plan.Progress. They drive it
// only through the engine's public Plan, the way the suite, sweep and
// fleet front-ends do.
package engine_test

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyPlan is a plan of n short, small cells.
func tinyPlan(n, parallelism int) engine.Plan {
	base := core.Options{Horizon: 30 * sim.Minute}
	return engine.Plan{
		Cells: n, Parallelism: parallelism,
		Spec: func(i int) engine.Spec {
			return engine.NewSpec(i, workload.Profile2019("a", 10), base, 3)
		},
	}
}

func TestReporterCountsAndFinalLine(t *testing.T) {
	var buf bytes.Buffer
	p := tinyPlan(3, 1)
	p.Label, p.Progress = "fleet", &buf
	if err := engine.Run(p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fleet: 3/3 done") {
		t.Fatalf("final progress line missing: %q", out)
	}
}

// TestReporterNilWriterAndConcurrency runs many cells on several
// workers with no progress writer: the run still starts and delivers
// every cell exactly once, and prints nowhere.
func TestReporterNilWriterAndConcurrency(t *testing.T) {
	const n = 32
	p := tinyPlan(n, 8)
	spec := p.Spec
	var started, done atomic.Int64
	p.Spec = func(i int) engine.Spec {
		started.Add(1)
		return spec(i)
	}
	p.OnResult = func(int, *core.CellResult) { done.Add(1) }
	if err := engine.Run(p); err != nil {
		t.Fatal(err)
	}
	if started.Load() != n || done.Load() != n {
		t.Fatalf("counts %d/%d, want %d/%d", done.Load(), started.Load(), n, n)
	}
}
