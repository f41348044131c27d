// Command perfbench is the repository's end-to-end benchmark. One
// process runs one named workload — a batch job driven by a single
// closed-loop client that issues one run at a time — for a fixed
// measurement time, checks every run's output bytes, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload suite-stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (medians over
// the repetitions). With --trace 1 the process alternates untraced and
// traced repetitions; the traced ones run under a CPU profile with the
// runners' metrics registry and timeline attached, and the result
// carries the per-layer ledger, which is also written as JSON under
// -dir. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", defaultSeed, "workload seed; every input derives from it")
		seconds = flag.Float64("seconds", 20, "measurement time: repetitions start until it has passed")
		traced  = flag.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end metrics")
		dir     = flag.String("dir", ".bench_build/perfbench", "directory for scratch files and ledgers")
		digests = flag.Bool("print-digests", false, "print the reference digests of every workload and exit")
	)
	flag.Parse()
	if *digests {
		if err := printDigests(*dir); err != nil {
			fail(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q (workloads: %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	cfg := config{
		workload: w, seed: *seed, traced: *traced == 1, dir: *dir,
		seconds: time.Duration(*seconds * float64(time.Second)),
		want:    expectedDigests[w.name][*seed],
	}
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	ctxLine, err := json.Marshal(res.context)
	if err != nil {
		fail(err)
	}
	fmt.Printf("context %s\n", ctxLine)
	if cfg.traced {
		path := filepath.Join(cfg.dir, fmt.Sprintf("ledger-%s-seed%d.json", w.name, cfg.seed))
		if err := writeLedger(path, res); err != nil {
			fail(err)
		}
		fmt.Printf("ledger written to %s\n", path)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runContext is the hardware and input context a result was measured
// in.
type runContext struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Traced       bool    `json:"traced"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	Reps         int     `json:"reps"`
	Rows         int64   `json:"rows"`
	MachineHours float64 `json:"machine_hours"`
	Digest       string  `json:"digest"`
}

func newRunContext(cfg config) runContext {
	return runContext{
		Workload: cfg.workload.name, Seed: cfg.seed, Traced: cfg.traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; it
// returns "unknown" where that file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the result line: exactly these four keys.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) summary() summaryLine {
	s := summaryLine{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.metrics)),
	}
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Metrics[name] = metricValue{Value: v, Unit: metricUnit(name)}
	}
	return s
}

// writeLedger writes the traced run's ledger: context, every per-layer
// metric, and the problems found, if any.
func writeLedger(path string, r *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	s := r.summary()
	doc := struct {
		Context  runContext `json:"context"`
		Metrics  []row      `json:"metrics"`
		Problems []string   `json:"problems"`
	}{Context: r.context, Problems: r.problems}
	for _, name := range names {
		doc.Metrics = append(doc.Metrics, row{name, s.Metrics[name].Value, s.Metrics[name].Unit})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
