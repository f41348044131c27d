package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsTiny runs every workload once untraced and once traced at
// the self-test size and checks the result against BENCHMARK.json.
func TestWorkloadsTiny(t *testing.T) {
	spec := readBenchmarkFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				cfg := config{workload: w, seed: 3, dir: dir, traced: traced, tiny: true}
				want := spec.EndToEnd
				if traced {
					// A few hundred profile samples for the 95% check;
					// one sample of a tiny repetition is several percent.
					cfg.seconds = 3 * time.Second
					want = spec.PerLayer
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := res.summary()
				if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
					t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d problems=%v",
						traced, s.Correct, s.Attempted, s.Failed, res.problems)
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("traced=%t: %d metrics, BENCHMARK.json names %d", traced, len(s.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := s.Metrics[m.Name]
					if !ok {
						t.Errorf("traced=%t: metric %s missing", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("traced=%t: metric %s unit %q, BENCHMARK.json %q", traced, m.Name, got.Unit, m.Unit)
					}
				}
				if traced && !raceEnabled {
					var total float64
					for _, l := range layers {
						total += res.metrics["cpu_s."+l]
					}
					named := 1 - res.metrics["cpu_s.other"]/total
					t.Logf("profile fold: %.3f of %.2fs CPU per repetition named", named, total)
					if total == 0 || named < 0.95 {
						t.Errorf("profile fold charges %.3f of %.2fs CPU per repetition to named layers, want >= 0.95", named, total)
					}
				}
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range left {
				t.Errorf("left behind %s", ent.Name())
			}
		})
	}
}

// TestSuiteStreamMatchesRetained pins the suite-stream output check: the
// streamed report equals the retained suite's at the same scale.
func TestSuiteStreamMatchesRetained(t *testing.T) {
	res, err := run(config{workload: findWorkload("suite-stream"), seed: 5, dir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRetained(&env{seed: 5, tiny: true, parallelism: runtime.NumCPU()}, res.context.Digest); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"container/heap.down", "container/heap.Pop", "repro/internal/sim.(*Kernel).Step"}, "container-heap"},
		{[]string{"strconv.FormatFloat", "repro/internal/report.F", "repro/internal/experiments.(*suiteAnalyses).WriteFigure10"}, "experiments"},
		{[]string{"sort.Float64s", "repro/internal/stats.Quantile", "repro/internal/experiments.statRow"}, "stats"},
		{[]string{"runtime.mapaccess1", "repro/internal/analysis/streaming.(*CellReducer).InstanceEvent"}, "streaming"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/trace.ReadDir"}, "gc"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   container/heap.Pop
             repro/internal/sim.(*Kernel).Step
-----------+-------------------------------------------------------
      1.2s   internal/runtime/maps.h2 (inline)
             repro/internal/cluster.(*Cell).Place
-----------+-------------------------------------------------------
`
	got, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	if got["container-heap"] != 0.01 || got["cluster"] != 1.2 || len(got) != 2 {
		t.Fatalf("foldTraces = %v", got)
	}
}
