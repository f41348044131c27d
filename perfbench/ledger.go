package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// layerOf maps a Go package to its ledger layer. Packages absent from it
// (report, table, metrics, progress, the benchmark itself, the standard
// library) are not layers: a sample is charged to the innermost frame
// that names one, so time in a helper lands on the layer that called it.
var layerOf = map[string]string{
	"repro/internal/sim":                "sim",
	"container/heap":                    "container-heap",
	"repro/internal/scheduler":          "scheduler",
	"repro/internal/cluster":            "cluster",
	"repro/internal/core":               "core",
	"repro/internal/autopilot":          "autopilot",
	"repro/internal/workload":           "workload",
	"repro/internal/rng":                "rng",
	"repro/internal/dist":               "dist",
	"repro/internal/trace":              "trace",
	"repro/internal/analysis/streaming": "streaming",
	"repro/internal/analysis":           "analysis",
	"repro/internal/stats":              "stats",
	"repro/internal/experiments":        "experiments",
	"repro/internal/engine":             "engine",
	"repro/internal/sweep":              "sweep",
	"repro/internal/fleet":              "fleet",
}

// gcFrames mark a sample as garbage-collector work wherever it sits:
// background mark workers, mark assists charged to allocating code,
// and sweeping.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.deductSweepCredit": true,
	"runtime.gcStart":           true,
}

// funcPackage returns the import path of a symbolized function name such
// as "repro/internal/sim.(*Kernel).RunUntil" or "container/heap.Pop".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify names the layer of one sample, frames listed leaf first.
func classify(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if l, ok := layerOf[funcPackage(f)]; ok {
			return l
		}
	}
	return "other"
}

// foldTraces folds the text of `go tool pprof -traces` into CPU seconds
// per layer. Each sample block is a weight and leaf frame on one line,
// callers below it, and a dashed separator after it.
func foldTraces(text string) (map[string]float64, error) {
	out := map[string]float64{}
	var weight time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			out[classify(frames)] += weight.Seconds()
		}
		frames, weight = frames[:0], 0
	}
	started := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			// "     10ms   runtime.mallocgc"
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected sample line %q", line)
			}
			weight = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	return out, sc.Err()
}

// profileLayers runs `go tool pprof -traces` over the traced
// repetitions' CPU profiles and folds the samples into layers.
func profileLayers(profiles []string, tmp string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmp)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTraces(string(text))
}

// ledgerMetrics reduces a traced process's repetitions to the per-layer
// metrics: CPU per layer from the profiles, exact counts from the
// registry, derived per-unit costs, harness spans and engine occupancy.
func ledgerMetrics(res *result, plain, traced []repStats, c counts, profiles []string, scratch string) error {
	m := res.metrics
	layerSecs, err := profileLayers(profiles, scratch)
	if err != nil {
		return err
	}
	n := float64(len(traced))
	var sampled, cpu float64
	for _, l := range layers {
		m["cpu_s."+l] = layerSecs[l] / n
		sampled += layerSecs[l]
	}
	for _, s := range traced {
		cpu += s.cpu.Seconds()
	}
	m["ledger.residual_frac"] = (cpu - sampled) / cpu
	wall := func(s repStats) float64 { return s.wall.Seconds() }
	m["trace.overhead_frac"] = medianOf(traced, wall)/medianOf(plain, wall) - 1

	m["sim.events"] = float64(c.Events)
	m["sim.pending_p99"] = c.PendingP99
	m["sched.attempts"] = float64(c.Attempts)
	m["sched.placed"] = float64(c.Placed)
	m["sched.place_ratio"] = ratio(float64(c.Placed), float64(c.Attempts))
	m["sched.score_cache_hit_ratio"] = ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))
	m["sched.preemptions"] = float64(c.Preemptions)
	m["sched.retries"] = float64(c.Retries)
	m["sched.queue_depth_p99"] = c.QueueDepthP99
	m["usage.windows"] = float64(c.Windows)
	m["trace.rows"] = float64(c.Rows)

	const ns = 1e9
	m["sim.ns_per_event"] = ratio(m["cpu_s.sim"]*ns, float64(c.Events))
	m["sched.ns_per_attempt"] = ratio((m["cpu_s.scheduler"]+m["cpu_s.cluster"])*ns, float64(c.Attempts))
	m["streaming.ns_per_row"] = ratio(m["cpu_s.streaming"]*ns, float64(c.Rows))
	m["trace.ns_per_row"] = ratio(m["cpu_s.trace"]*ns, float64(c.Rows))

	m["span.setup_s"] = medianOf(traced, func(s repStats) float64 { return s.setup.Seconds() })
	m["span.simulate_s"] = medianOf(traced, func(s repStats) float64 { return s.sim.Seconds() })
	for _, name := range harnessSpans {
		m["span."+name+"_s"] = medianOf(traced, func(s repStats) float64 { return s.spans[name].Seconds() })
	}

	// Cell-span percentiles need at least ten cells beyond p90, so they
	// are reported only where one repetition runs 100 cells or more.
	var cells []float64
	for _, s := range traced {
		if len(s.cellBusy) < 100 {
			cells = nil
			break
		}
		for _, d := range s.cellBusy {
			cells = append(cells, d.Seconds())
		}
	}
	if len(cells) > 0 {
		m["engine.cell_s.p50"] = quantile(cells, 0.50)
		m["engine.cell_s.p90"] = quantile(cells, 0.90)
	} else {
		m["engine.cell_s.p50"], m["engine.cell_s.p90"] = 0, 0
	}
	m["engine.busy_frac"] = medianOf(traced, func(s repStats) float64 {
		var busy time.Duration
		for _, d := range s.cellBusy {
			busy += d
		}
		return busy.Seconds() / (float64(s.workers) * s.sim.Seconds())
	})
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
