package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// config is one benchmark process's settings.
type config struct {
	workload *workloadDef
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string
	// want is the expected report digest; when empty, every repetition
	// must reproduce the census repetition's.
	want string
	// tiny shrinks every workload to a few tenths of a second of work
	// (the self-test size).
	tiny bool
}

// result is what one process measured.
type result struct {
	context           runContext
	metrics           map[string]float64
	attempted, failed int
	problems          []string
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// rep is one repetition in progress: the knobs and sinks a workload body
// hands to the program, and the harness spans it records.
type rep struct {
	knobs core.RunKnobs
	out   hash.Hash // every report byte goes here
	// expect, when a body sets it, is a digest the repetition's report
	// must equal (trace-roundtrip's direct report).
	expect string

	scratch      string
	temps        []string
	start        time.Time
	first        firstStart
	simulatedAt  time.Time
	machineHours float64
	spans        map[string]time.Duration
	after        []func() error
}

// firstStart is a repetition's Progress writer. The runners print their
// first progress line as the first cell starts, so the time of the first
// write ends set-up.
type firstStart struct {
	once sync.Once
	at   time.Time
}

func (f *firstStart) Write(p []byte) (int, error) {
	f.once.Do(func() { f.at = time.Now() })
	return len(p), nil
}

// simulated marks the runner's return and the machine-hours it
// simulated.
func (r *rep) simulated(machineHours float64) {
	r.simulatedAt = time.Now()
	r.machineHours = machineHours
}

// timed runs fn as the named harness span.
func (r *rep) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	r.spans[name] += time.Since(t)
	return err
}

// tempDir makes a directory that is removed when the repetition ends.
func (r *rep) tempDir() (string, error) {
	d, err := os.MkdirTemp(r.scratch, "rep-")
	if err != nil {
		return "", err
	}
	r.temps = append(r.temps, d)
	return d, nil
}

// afterTiming queues fn to run once the repetition's clock has stopped,
// before its digest is taken.
func (r *rep) afterTiming(fn func() error) { r.after = append(r.after, fn) }

// repMode says what a repetition attaches to the runner.
type repMode int

const (
	plainRep  repMode = iota
	censusRep         // a metrics registry: the input's exact counts
	tracedRep         // a registry, a timeline and a CPU profile
)

// repStats is what the harness measured around one repetition.
type repStats struct {
	wall, cpu, setup, sim time.Duration
	allocBytes, peakLive  uint64
	machineHours          float64
	spans                 map[string]time.Duration
	digest                string
	counts                counts
	cellBusy              []time.Duration
	workers               int
	err                   error
}

// measure runs one repetition of p. A traced repetition writes its CPU
// profile to profile.
func measure(p *plan, scratch string, mode repMode, profile string) (st repStats) {
	runtime.GC() // start every repetition from the same live heap
	r := &rep{out: sha256.New(), scratch: scratch, spans: map[string]time.Duration{}}
	r.knobs.Progress = &r.first
	if mode != plainRep {
		r.knobs.Metrics = metrics.NewRegistry()
	}
	if mode == tracedRep {
		r.knobs.Timeline = metrics.NewTimeline()
		f, err := os.Create(profile)
		if err != nil {
			st.err = err
			return st
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			st.err = err
			return st
		}
	}
	defer func() {
		for _, d := range r.temps {
			if err := os.RemoveAll(d); err != nil && st.err == nil {
				st.err = err
			}
		}
	}()

	peak := startPeakLive()
	alloc0, cpu0 := heapAllocs(), processCPU()
	r.start = time.Now()
	err := callBody(p.body, r)
	end := time.Now()
	st.cpu = processCPU() - cpu0
	st.allocBytes = heapAllocs() - alloc0
	st.peakLive = peak.stop()
	if mode == tracedRep {
		pprof.StopCPUProfile()
	}
	st.wall = end.Sub(r.start)

	for _, fn := range r.after {
		if err == nil {
			err = fn()
		}
	}
	st.digest = hex.EncodeToString(r.out.Sum(nil))
	if err == nil && r.expect != "" && r.expect != st.digest {
		err = fmt.Errorf("report digest %s differs from the direct report's %s", st.digest, r.expect)
	}
	if err == nil && r.first.at.IsZero() {
		err = errors.New("no cell started")
	}
	if err == nil && r.simulatedAt.IsZero() {
		err = errors.New("workload did not mark the end of simulation")
	}
	if err != nil {
		st.err = err
		return st
	}
	st.setup = r.first.at.Sub(r.start)
	st.sim = r.simulatedAt.Sub(r.first.at)
	st.machineHours = r.machineHours
	st.spans = r.spans
	if mode != plainRep {
		st.counts = readCounts(r.knobs.Metrics)
	}
	if mode == tracedRep {
		st.cellBusy, st.err = cellBusy(r.knobs.Timeline)
		st.workers = min(p.parallelism, p.cells)
	}
	return st
}

// callBody runs a workload body, turning a panic on the harness's
// goroutine into an error. Panics inside engine workers end the process.
func callBody(body func(*rep) error, r *rep) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return body(r)
}

// run executes cfg's workload for cfg.seconds and reduces the
// repetitions to its metrics. An untimed census repetition comes first:
// it fixes the expected digest (unless cfg.want does) and the exact
// counts every traced repetition must reproduce.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: cfg.seed, tiny: cfg.tiny, parallelism: runtime.NumCPU(), scratch: scratch}
	p, err := cfg.workload.prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", cfg.workload.name, err)
	}
	p.parallelism = e.parallelism

	res := &result{context: newRunContext(cfg), metrics: map[string]float64{}}
	census := measure(p, scratch, censusRep, "")
	res.attempted += p.cells
	if census.err == nil && cfg.want != "" && census.digest != cfg.want {
		census.err = fmt.Errorf("report digest %s, want %s", census.digest, cfg.want)
	}
	if census.err != nil {
		return nil, fmt.Errorf("%s: census repetition: %w", cfg.workload.name, census.err)
	}
	ref := census.digest
	res.context.Rows = census.counts.Rows
	res.context.MachineHours = census.machineHours

	minReps := 3
	if cfg.traced {
		minReps = 4 // two untraced, two traced
	}
	var plain, traced []repStats
	var profiles []string
	begin := time.Now()
	for i := 0; i < minReps || time.Since(begin) < cfg.seconds; i++ {
		mode, profile := plainRep, ""
		if cfg.traced && i%2 == 1 {
			mode = tracedRep
			profile = filepath.Join(scratch, fmt.Sprintf("cpu-%d.pprof", i))
			profiles = append(profiles, profile)
		}
		st := measure(p, scratch, mode, profile)
		res.attempted += p.cells
		if st.err == nil && st.digest != ref {
			st.err = fmt.Errorf("report digest %s, want %s", st.digest, ref)
		}
		if st.err == nil && mode == tracedRep && st.counts != census.counts {
			st.err = fmt.Errorf("counts %+v differ from the census repetition's %+v", st.counts, census.counts)
		}
		if st.err != nil {
			res.failed += p.cells
			res.problem("repetition %d: %v", i, st.err)
			continue
		}
		fmt.Fprintf(os.Stderr, "rep %d traced=%t wall=%.3fs cpu=%.3fs setup=%.6fs alloc=%.1fMB peak_live=%.1fMB\n",
			i, mode == tracedRep, st.wall.Seconds(), st.cpu.Seconds(), st.setup.Seconds(),
			float64(st.allocBytes)/(1<<20), float64(st.peakLive)/(1<<20))
		if mode == tracedRep {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}
	res.context.Reps = len(plain) + len(traced)
	res.context.Digest = ref
	if len(plain) == 0 || (cfg.traced && len(traced) == 0) {
		return res, fmt.Errorf("%s: every repetition failed: %v", cfg.workload.name, res.problems)
	}
	if !cfg.traced {
		endToEndMetrics(res, plain)
		return res, nil
	}
	return res, ledgerMetrics(res, plain, traced, census.counts, profiles, scratch)
}

// endToEndMetrics reports the medians over the untraced repetitions.
func endToEndMetrics(res *result, reps []repStats) {
	m := res.metrics
	m["sim_mh_per_s"] = medianOf(reps, func(s repStats) float64 { return s.machineHours / s.wall.Seconds() })
	m["wall_s"] = medianOf(reps, func(s repStats) float64 { return s.wall.Seconds() })
	m["cpu_s"] = medianOf(reps, func(s repStats) float64 { return s.cpu.Seconds() })
	m["setup_s"] = medianOf(reps, func(s repStats) float64 { return s.setup.Seconds() })
	m["alloc_mb"] = medianOf(reps, func(s repStats) float64 { return float64(s.allocBytes) / (1 << 20) })
	m["peak_live_mb"] = medianOf(reps, func(s repStats) float64 { return float64(s.peakLive) / (1 << 20) })
}

func medianOf(reps []repStats, f func(repStats) float64) float64 {
	xs := make([]float64, len(reps))
	for i, s := range reps {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	return s[max(0, min(len(s)-1, i-1))]
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the cumulative count of bytes the program has allocated.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// peakLive polls the live heap marked by the most recent GC. Reading
// runtime/metrics does not stop the world, unlike runtime.ReadMemStats,
// so polling leaves the measured run undisturbed; the measured runs' GC
// cycles come further apart than the 5 ms poll, so it sees each cycle's
// result.
type peakLive struct {
	quit, done chan struct{}
	peak       uint64
}

func startPeakLive() *peakLive {
	p := &peakLive{quit: make(chan struct{}), done: make(chan struct{})}
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		rtmetrics.Read(s)
		p.peak = max(p.peak, s[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return p
}

// stop ends the polling and returns the peak in bytes.
func (p *peakLive) stop() uint64 {
	close(p.quit)
	<-p.done
	return p.peak
}

// counts are the exact counts a traced repetition reads from the
// runners' metrics registry. The same seed must reproduce them exactly.
type counts struct {
	Events, Attempts, Placed, Preemptions, Retries, Windows, Rows int64
	CacheHits, CacheMisses                                        int64
	PendingP99, QueueDepthP99                                     float64
}

func readCounts(reg *metrics.Registry) counts {
	snap := reg.Snapshot()
	c := counts{}
	for _, v := range snap.Counters {
		switch v.Name {
		case "sim_events_total":
			c.Events = v.Value
		case "sched_placement_attempts_total":
			c.Attempts = v.Value
		case "sched_tasks_placed_total":
			c.Placed = v.Value
		case "sched_preemptions_total":
			c.Preemptions = v.Value
		case "sched_placement_retries_total":
			c.Retries = v.Value
		case "usage_windows_total":
			c.Windows = v.Value
		case "sched_score_cache_hits_total":
			c.CacheHits = v.Value
		case "sched_score_cache_misses_total":
			c.CacheMisses = v.Value
		case "trace_rows_collections_total", "trace_rows_instances_total",
			"trace_rows_usage_total", "trace_rows_machines_total":
			c.Rows += v.Value
		}
	}
	for _, h := range snap.Hists {
		switch h.Name {
		case "sim_event_slab":
			c.PendingP99 = h.P99
		case "sched_queue_depth":
			c.QueueDepthP99 = h.P99
		}
	}
	return c
}

// cellBusy reads each cell's busy interval from the run timeline: from
// the engine's "cell" span start (the worker picking the cell up) to the
// end of the cell's "flush" span (the simulation returning). The "cell"
// span itself also covers waiting for in-order delivery.
func cellBusy(tl *metrics.Timeline) ([]time.Duration, error) {
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var events []struct {
		Name string `json:"name"`
		TID  int    `json:"tid"`
		TS   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return nil, err
	}
	start, end := map[int]int64{}, map[int]int64{}
	for _, ev := range events {
		switch ev.Name {
		case "cell":
			start[ev.TID] = ev.TS
		case "flush":
			end[ev.TID] = ev.TS + ev.Dur
		}
	}
	busy := make([]time.Duration, 0, len(start))
	for tid, s := range start {
		e, ok := end[tid]
		if !ok {
			return nil, fmt.Errorf("timeline: cell %d has no flush span", tid)
		}
		busy = append(busy, time.Duration(e-s)*time.Microsecond)
	}
	return busy, nil
}
