// Package experiments regenerates every table and figure of the paper's
// evaluation from freshly simulated traces: Table 1, Figures 1–14 and
// Table 2, plus the §5.1 and §5.2 statistics. It is the engine behind
// cmd/borgexperiments and the repository's benchmark suite, and the source
// of EXPERIMENTS.md.
//
// The report has one analysis implementation: one streaming.CellReducer
// per cell, fed either live or by streaming.Replay. The two runners
// differ only in the sink each cell gets. RunSuiteStreaming attaches the
// reducers, folding every row online so memory stays bounded by the
// number of jobs rather than the number of trace rows. RunSuite attaches
// a trace.MemTrace instead, and Suite.WriteReport replays the retained
// traces through fresh reducers on first use. Both
// produce byte-identical reports for the same scale and seed (the
// differential test in this package is CI's acceptance gate for that),
// and the reducer itself is checked against a test-only walker oracle in
// package streaming.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale sets the simulated size of the reproduction. The paper's cells
// have 12,000 machines for a month; everything here is calibrated to scale
// linearly, and rates are reported both raw and normalized back to paper
// scale.
type Scale struct {
	Name         string
	Machines2011 int
	Machines2019 int // per cell, 8 cells
	Horizon      sim.Time
	Warmup       sim.Time // excluded from time-averaged figures
	Seed         uint64
	// Parallelism bounds how many cells simulate concurrently (engine
	// worker pool); <= 0 means GOMAXPROCS. Output is identical at every
	// setting — per-cell seeds derive from Seed via engine.DeriveSeed.
	Parallelism int
	// RunKnobs carries the shared per-run knobs. Policy and Arrival
	// override every cell profile's placement policy / arrival process by
	// name (empty keeps each profile's defaults; SuiteProfiles panics on
	// unknown names). UsageNoiseFast threads into every cell's options.
	// Progress, when non-nil, receives live progress lines (cells done /
	// in flight / ETA) while the suite simulates — pure wall-clock
	// reporting, it never changes the output. Metrics/Timeline, when
	// non-nil, receive the suite's instrument rollup and run timeline
	// (each cell gets a private registry, merged in spec order — see
	// engine.Plan); like Progress, they never change the report or
	// trace bytes.
	core.RunKnobs
	// RecordWorkload captures every cell's arrival/job stream into its
	// CellResult.Workload (see SaveWorkloads for persisting a suite's
	// recordings).
	RecordWorkload bool
	// Replay holds per-cell recordings, index-aligned with SuiteSpecs
	// (0 = the 2011 cell, then 2019 a–h): a non-nil entry replays that
	// recording instead of generating cell i's workload. LoadWorkloads
	// rebuilds this slice from a recorded directory.
	Replay []*workload.Recording
}

// SmallScale is quick enough for tests and benchmarks.
func SmallScale() Scale {
	return Scale{Name: "small", Machines2011: 120, Machines2019: 100,
		Horizon: 12 * sim.Hour, Warmup: 4 * sim.Hour, Seed: 1}
}

// DefaultScale is the scale EXPERIMENTS.md reports.
func DefaultScale() Scale {
	return Scale{Name: "default", Machines2011: 300, Machines2019: 250,
		Horizon: 24 * sim.Hour, Warmup: 8 * sim.Hour, Seed: 1}
}

// LargeScale stresses the simulator further (slower, closer asymptotics).
func LargeScale() Scale {
	return Scale{Name: "large", Machines2011: 600, Machines2019: 400,
		Horizon: 48 * sim.Hour, Warmup: 16 * sim.Hour, Seed: 1}
}

// Suite is one run of the nine-cell suite and the only type that renders
// its report. Every figure comes from the per-cell reducers: built live
// by RunSuiteStreaming, or replayed from T2011/T2019 on first use when
// the suite retained its traces (RunSuite, or a literal holding traces
// read back from disk).
type Suite struct {
	Scale Scale
	T2011 *trace.MemTrace   // nil when streamed
	T2019 []*trace.MemTrace // cells a–h in order; nil when streamed
	Stats []core.CellResult

	cells []*streaming.CellReducer // 2011 cell, then a–h; see reducers
}

// SuiteProfiles builds the suite's nine cell profiles — the 2011 cell at
// index 0, then the 2019 cells a–h. Every call constructs fresh profile
// values, so callers (parameter-sweep variants in particular) may mutate
// them freely without affecting other runs.
func SuiteProfiles(sc Scale) []*workload.CellProfile {
	profiles := make([]*workload.CellProfile, 0, 9)
	profiles = append(profiles, workload.Profile2011(sc.Machines2011))
	for _, cell := range workload.Cells2019() {
		profiles = append(profiles, workload.Profile2019(cell, sc.Machines2019))
	}
	if sc.Policy != "" {
		policy := scheduler.MustParsePolicy(sc.Policy)
		for _, p := range profiles {
			p.Policy = policy
		}
	}
	if sc.Arrival != "" {
		workload.MustParseArrival(sc.Arrival) // validate once, loudly
		for _, p := range profiles {
			p.Arrival = sc.Arrival
		}
	}
	return profiles
}

// SuiteSpecs builds the suite's nine cell specs — the 2011 cell at index
// 0, then the eight 2019 cells a–h — with seeds and ID spaces assigned
// per the engine contracts.
func SuiteSpecs(sc Scale) []engine.Spec {
	// Policy and Arrival act at the profile level (SuiteProfiles), so
	// only the remaining knobs ride the per-cell options; the engine owns
	// Progress/Metrics/Timeline. TimelineWarmup is inert until a timeline
	// is attached.
	base := core.Options{Horizon: sc.Horizon, RecordWorkload: sc.RecordWorkload,
		TimelineWarmup: sc.Warmup}
	base.UsageNoiseFast = sc.UsageNoiseFast
	profiles := SuiteProfiles(sc)
	specs := make([]engine.Spec, 0, len(profiles))
	for i, p := range profiles {
		spec := engine.NewSpec(i, p, base, sc.Seed)
		if i < len(sc.Replay) {
			spec.Options.Replay = sc.Replay[i]
		}
		specs = append(specs, spec)
	}
	return specs
}

// RunSuite simulates the 2011 cell and the eight 2019 cells, sc.Parallelism
// cells at a time, attaching a MemTrace to every cell so the suite
// retains each cell's full trace in memory. A cell that panics re-panics
// here, on the caller's goroutine, with its *engine.CellError.
func RunSuite(sc Scale) *Suite {
	s, err := runSuite(sc, true, StreamingOptions{}) // no exports: only a cell can fail
	if err != nil {
		panic(err)
	}
	return s
}

// RunSuiteStreaming simulates the nine-cell suite retaining no trace:
// every trace row streams through the per-cell reducer (and optional CSV
// export shard) and is dropped, so memory stays bounded by per-job
// reducer state instead of growing with the horizon. A cell that panics
// is returned as its *engine.CellError.
func RunSuiteStreaming(sc Scale, opts StreamingOptions) (*Suite, error) {
	return runSuite(sc, false, opts)
}

// runSuite is the body of both runners; only the sinks each cell gets
// differ. With retain, every cell gets a MemTrace and the suite keeps
// them as T2011/T2019; otherwise every cell gets a live reducer (and
// opts' export shard).
func runSuite(sc Scale, retain bool, opts StreamingOptions) (*Suite, error) {
	specs := SuiteSpecs(sc)
	s := &Suite{Scale: sc}
	var exports []*trace.DirSink
	// closeExports closes every export shard, returning err or else the
	// first close error.
	closeExports := func(err error) error {
		for _, ds := range exports {
			if cerr := ds.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	for i := range specs {
		o := &specs[i].Options
		if retain {
			mem := trace.NewMemTrace(core.TraceMeta(specs[i].Profile, *o))
			if i == 0 {
				s.T2011 = mem
			} else {
				s.T2019 = append(s.T2019, mem)
			}
			o.Sinks = append(o.Sinks, mem)
			continue
		}
		red := NewCellReducerFor(specs[i])
		s.cells = append(s.cells, red)
		o.Sinks = append(o.Sinks, red)
		if opts.ExportDir == "" {
			continue
		}
		shard := filepath.Join(opts.ExportDir, ShardDirName(i, specs[i].Profile.Name))
		ds, err := trace.NewDirSink(shard, red.Meta())
		if err != nil {
			return nil, closeExports(err)
		}
		exports = append(exports, ds)
		o.Sinks = append(o.Sinks, ds)
	}

	err := engine.Run(engine.Plan{
		Label: "suite", Cells: len(specs), Parallelism: sc.Parallelism,
		Progress: sc.Progress, Metrics: sc.Metrics, Timeline: sc.Timeline,
		Spec:     func(i int) engine.Spec { return specs[i] },
		OnResult: func(_ int, r *core.CellResult) { s.Stats = append(s.Stats, *r) },
	})
	if err := closeExports(err); err != nil {
		return nil, err
	}
	return s, nil
}

// RateNormalization2019 returns the factor converting this suite's
// per-cell 2019 rates to paper scale (12,000 machines).
func (s *Suite) RateNormalization2019() float64 {
	return float64(workload.ReferenceMachines) / float64(s.Scale.Machines2019)
}

// RateNormalization2011 is the 2011 counterpart.
func (s *Suite) RateNormalization2011() float64 {
	return float64(workload.ReferenceMachines) / float64(s.Scale.Machines2011)
}

// reducers returns the 2011 cell's reducer and the 2019 cells' (a–h).
// A suite without live reducers replays its retained traces on first
// use, with the Figure 6 snapshot at mid-horizon as NewCellReducerFor
// pins it live.
func (s *Suite) reducers() (c2011 *streaming.CellReducer, c2019 []*streaming.CellReducer) {
	if s.cells == nil {
		for _, tr := range append([]*trace.MemTrace{s.T2011}, s.T2019...) {
			s.cells = append(s.cells, streaming.Replay(tr,
				streaming.Config{Meta: tr.Meta, SnapshotAt: tr.Meta.Duration / 2}))
		}
	}
	return s.cells[0], s.cells[1:]
}

func (s *Suite) rates2019() analysis.SubmissionRates {
	_, c2019 := s.reducers()
	cells := make([]analysis.SubmissionRates, len(c2019))
	for i, c := range c2019 {
		cells[i] = c.Rates()
	}
	return analysis.MergeRates(cells)
}

func (s *Suite) integrals2019() analysis.UsageIntegrals {
	_, c2019 := s.reducers()
	cells := make([]analysis.UsageIntegrals, len(c2019))
	for i, c := range c2019 {
		cells[i] = c.UsageIntegrals()
	}
	return analysis.MergeIntegrals(cells)
}

// WriteReport emits every artifact to w.
func (s *Suite) WriteReport(w io.Writer) error {
	steps := []func(io.Writer) error{
		s.writeTable1,
		s.writeFigure1,
		s.writeFigures2and4,
		s.writeFigures3and5,
		s.writeFigure6,
		s.writeFigure7,
		s.writeAllocSetStats,
		s.writeTerminationStats,
		s.writeFigure8,
		s.writeFigure9,
		s.writeFigure10,
		s.writeFigure11,
		s.writeTable2,
		s.writeFigure12,
		s.writeFigure13,
		s.writeFigure14,
	}
	for _, step := range steps {
		if err := step(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// writeTable1 emits the trace-comparison inventory.
func (s *Suite) writeTable1(w io.Writer) error {
	c2011, c2019 := s.reducers()
	fmt.Fprintf(w, "== Table 1: trace comparison (scale %q) ==\n", s.Scale.Name)
	cells := make([]analysis.Inventory, len(c2019))
	for i, c := range c2019 {
		cells[i] = c.Inventory()
	}
	rows := analysis.Table1FromInventories(
		c2011.Inventory(), c2011.Meta().Duration,
		analysis.MergeInventories(cells), c2019[0].Meta().Duration, len(c2019))
	return report.Table1(w, rows)
}

// writeFigure1 emits machine shape populations.
func (s *Suite) writeFigure1(w io.Writer) error {
	_, c2019 := s.reducers()
	fmt.Fprintln(w, "== Figure 1: machine shapes (2019, all cells) ==")
	counts := make(map[trace.Resources]int)
	for _, c := range c2019 {
		for _, p := range c.MachineShapes() {
			counts[trace.Resources{CPU: p.CPU, Mem: p.Mem}] += p.Count
		}
	}
	var rows [][]string
	for r, n := range counts {
		rows = append(rows, []string{report.F(r.CPU), report.F(r.Mem), fmt.Sprint(n)})
	}
	sortRows(rows)
	return report.Table(w, []string{"NCU", "NMU", "machines"}, rows)
}

// writeFigures2and4 emits the hourly usage and allocation series.
func (s *Suite) writeFigures2and4(w io.Writer) error {
	c2011, c2019 := s.reducers()
	var use19, alloc19 []analysis.TierSeries
	for _, c := range c2019 {
		use19 = append(use19, c.UsageSeries())
		alloc19 = append(alloc19, c.AllocationSeries())
	}
	avgUse := analysis.AverageSeries(use19)
	avgAlloc := analysis.AverageSeries(alloc19)
	u11 := c2011.UsageSeries()
	a11 := c2011.AllocationSeries()

	if err := report.TierSeriesTable(w, "== Figure 2a: 2011 CPU usage (fraction of capacity/hour) ==", u11, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 2b: 2019 CPU usage (avg of 8 cells) ==", avgUse, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 2c: 2011 memory usage ==", u11, "mem"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 2d: 2019 memory usage (avg of 8 cells) ==", avgUse, "mem"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 4a: 2011 CPU allocation ==", a11, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 4b: 2019 CPU allocation (avg of 8 cells) ==", avgAlloc, "cpu"); err != nil {
		return err
	}
	if err := report.TierSeriesTable(w, "== Figure 4c: 2011 memory allocation ==", a11, "mem"); err != nil {
		return err
	}
	return report.TierSeriesTable(w, "== Figure 4d: 2019 memory allocation (avg of 8 cells) ==", avgAlloc, "mem")
}

// writeFigures3and5 emits the per-cell tier averages.
func (s *Suite) writeFigures3and5(w io.Writer) error {
	c2011, c2019 := s.reducers()
	var use, alloc []analysis.TierAverages
	use = append(use, c2011.AverageUsageByTier(s.Scale.Warmup))
	alloc = append(alloc, c2011.AverageAllocationByTier(s.Scale.Warmup))
	for _, c := range c2019 {
		use = append(use, c.AverageUsageByTier(s.Scale.Warmup))
		alloc = append(alloc, c.AverageAllocationByTier(s.Scale.Warmup))
	}
	if err := report.TierAveragesTable(w, "== Figure 3 (CPU): average usage by tier and cell ==", use, "cpu"); err != nil {
		return err
	}
	if err := report.TierAveragesTable(w, "== Figure 3 (mem) ==", use, "mem"); err != nil {
		return err
	}
	if err := report.TierAveragesTable(w, "== Figure 5 (CPU): average allocation by tier and cell ==", alloc, "cpu"); err != nil {
		return err
	}
	return report.TierAveragesTable(w, "== Figure 5 (mem) ==", alloc, "mem")
}

// writeFigure6 emits machine-utilization CCDF quantiles per cell at the
// mid-trace snapshot.
func (s *Suite) writeFigure6(w io.Writer) error {
	c2011, c2019 := s.reducers()
	fmt.Fprintln(w, "== Figure 6: machine utilization at mid-trace (upper quantiles) ==")
	probs := []float64{0.9, 0.5, 0.1}
	headers := []string{"cell/resource", "P>0.9", "median", "P>0.1"}
	var rows [][]string
	cpu11, mem11 := c2011.MachineUtilization()
	rows = append(rows, report.CCDFQuantiles("2011 cpu", cpu11, probs))
	rows = append(rows, report.CCDFQuantiles("2011 mem", mem11, probs))
	for i, c := range c2019 {
		cpu, mem := c.MachineUtilization()
		cell := workload.Cells2019()[i]
		rows = append(rows, report.CCDFQuantiles(cell+" cpu", cpu, probs))
		rows = append(rows, report.CCDFQuantiles(cell+" mem", mem, probs))
	}
	return report.Table(w, headers, rows)
}

// writeFigure7 emits cell g's transition counts, as the paper does.
func (s *Suite) writeFigure7(w io.Writer) error {
	_, c2019 := s.reducers()
	gIdx := 6 // cell g
	return report.Transitions(w, "== Figure 7: state transitions (cell g) ==",
		c2019[gIdx].Transitions(), 20)
}

// writeAllocSetStats emits §5.1's numbers.
func (s *Suite) writeAllocSetStats(w io.Writer) error {
	_, c2019 := s.reducers()
	accums := make([]analysis.AllocSetAccum, len(c2019))
	for i, c := range c2019 {
		accums[i] = c.AllocSetAccum()
	}
	st := analysis.FinishAllocSets(accums)
	fmt.Fprintln(w, "== §5.1: alloc sets (2019, all cells) ==")
	rows := [][]string{
		{"alloc sets / collections", report.Pct(st.AllocSetShare), "2%"},
		{"alloc share of CPU allocation", report.Pct(st.CPUAllocShare), "20%"},
		{"alloc share of RAM allocation", report.Pct(st.MemAllocShare), "18%"},
		{"jobs running in allocs", report.Pct(st.JobsInAllocShare), "15%"},
		{"prod share of in-alloc jobs", report.Pct(st.ProdShareInAlloc), "95%"},
		{"mem utilization inside allocs", report.Pct(st.MemUtilInAlloc), "73%"},
		{"mem utilization outside", report.Pct(st.MemUtilOutside), "41%"},
	}
	return report.Table(w, []string{"metric", "measured", "paper"}, rows)
}

// writeTerminationStats emits §5.2's numbers.
func (s *Suite) writeTerminationStats(w io.Writer) error {
	_, c2019 := s.reducers()
	accums := make([]analysis.TerminationAccum, len(c2019))
	for i, c := range c2019 {
		accums[i] = c.TerminationAccum()
	}
	st := analysis.FinishTerminations(accums)
	fmt.Fprintln(w, "== §5.2: terminations (2019, all cells) ==")
	rows := [][]string{
		{"collections with any eviction", report.Pct(st.CollectionsWithEviction), "3.2%"},
		{"non-prod share of evicted", report.Pct(st.NonProdShareOfEvicted), "96.6%"},
		{"prod collections evicted", report.Pct(st.ProdEvictedShare), "<0.2%"},
		{"single-eviction share (prod)", report.Pct(st.SingleEvictionShare), "52%"},
		{"kill rate with parent", report.Pct(st.KillRateWithParent), "87%"},
		{"kill rate without parent", report.Pct(st.KillRateWithoutParent), "41%"},
	}
	return report.Table(w, []string{"metric", "measured", "paper"}, rows)
}

// writeFigure8 emits job-submission-rate distributions.
func (s *Suite) writeFigure8(w io.Writer) error {
	c2011, _ := s.reducers()
	fmt.Fprintln(w, "== Figure 8: job submission rate (jobs/hour, normalized to 12k machines) ==")
	r19 := s.rates2019()
	r11 := c2011.Rates()
	n19 := scaleAll(r19.JobsPerHour, s.RateNormalization2019())
	n11 := scaleAll(r11.JobsPerHour, s.RateNormalization2011())
	rows := [][]string{
		statRow("2011", n11),
		statRow("2019 per-cell", n19),
	}
	med19 := stats.Quantile(n19, 0.5)
	med11 := stats.Quantile(n11, 0.5)
	rows = append(rows, []string{"median ratio 2019/2011", report.F(med19 / med11), "", "", "paper: 3.7x"})
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// writeFigure9 emits task-submission-rate distributions and the
// resubmission ratio.
func (s *Suite) writeFigure9(w io.Writer) error {
	c2011, _ := s.reducers()
	fmt.Fprintln(w, "== Figure 9: task submission rate (tasks/hour, normalized) ==")
	r19 := s.rates2019()
	r11 := c2011.Rates()
	rows := [][]string{
		statRow("2011 new tasks", scaleAll(r11.NewTasksPerHour, s.RateNormalization2011())),
		statRow("2011 all tasks", scaleAll(r11.AllTasksPerHour, s.RateNormalization2011())),
		statRow("2019 new tasks", scaleAll(r19.NewTasksPerHour, s.RateNormalization2019())),
		statRow("2019 all tasks", scaleAll(r19.AllTasksPerHour, s.RateNormalization2019())),
	}
	resub19 := stats.Quantile(r19.AllTasksPerHour, 0.5)/stats.Quantile(r19.NewTasksPerHour, 0.5) - 1
	resub11 := stats.Quantile(r11.AllTasksPerHour, 0.5)/stats.Quantile(r11.NewTasksPerHour, 0.5) - 1
	rows = append(rows, []string{"resubmit:new 2011", report.F(resub11), "", "", "paper: 0.66"})
	rows = append(rows, []string{"resubmit:new 2019", report.F(resub19), "", "", "paper: 2.26"})
	return report.Table(w, []string{"series", "median", "mean", "p90", "note"}, rows)
}

// writeFigure10 emits scheduling-delay distributions by era and tier.
func (s *Suite) writeFigure10(w io.Writer) error {
	c2011, c2019 := s.reducers()
	fmt.Fprintln(w, "== Figure 10: job scheduling delay (seconds, ready -> first task running) ==")
	cells := make([]analysis.DelaySamples, len(c2019))
	for i, c := range c2019 {
		cells[i] = c.Delays()
	}
	d19 := analysis.MergeDelays(cells)
	d11 := c2011.Delays()
	rows := [][]string{
		delayRow("2011 all", d11.All),
		delayRow("2019 all", d19.All),
	}
	for _, tier := range trace.Tiers() {
		if xs := d11.ByTier[tier]; len(xs) > 0 {
			rows = append(rows, delayRow("2011 "+tier.String(), xs))
		}
	}
	for _, tier := range trace.Tiers() {
		if xs := d19.ByTier[tier]; len(xs) > 0 {
			rows = append(rows, delayRow("2019 "+tier.String(), xs))
		}
	}
	return report.Table(w, []string{"series", "median", "p90", "p99", "n"}, rows)
}

// writeFigure11 emits tasks-per-job quantiles by tier.
func (s *Suite) writeFigure11(w io.Writer) error {
	_, c2019 := s.reducers()
	fmt.Fprintln(w, "== Figure 11: tasks per job by tier (2019) ==")
	cells := make([]map[trace.Tier][]float64, len(c2019))
	for i, c := range c2019 {
		cells[i] = c.TasksPerJob()
	}
	// MergeSamplesBy returns fresh slices, so sorting them in place
	// leaves the reducers' samples untouched.
	tpj := analysis.MergeSamplesBy(cells)
	rows := make([][]string, 0, len(tpj))
	for _, tier := range trace.Tiers() {
		xs := tpj[tier]
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		rows = append(rows, []string{
			tier.String(),
			report.F(stats.QuantileSorted(xs, 0.80)),
			report.F(stats.QuantileSorted(xs, 0.95)),
			report.F(stats.QuantileSorted(xs, 0.99)),
			fmt.Sprint(len(xs)),
		})
	}
	rows = append(rows, []string{"paper 95%ile", "beb 498", "mid 67", "free 21 / prod 3", ""})
	return report.Table(w, []string{"tier", "p80", "p95", "p99", "jobs"}, rows)
}

// writeTable2 emits the resource-hour distribution statistics.
func (s *Suite) writeTable2(w io.Writer) error {
	c2011, _ := s.reducers()
	i19 := s.integrals2019()
	i11 := c2011.UsageIntegrals()
	if err := report.Table2(w, "== Table 2 (2011): per-job resource-hours ==",
		analysis.ComputeTable2Column(i11.CPUHours), analysis.ComputeTable2Column(i11.MemHours)); err != nil {
		return err
	}
	return report.Table2(w, "== Table 2 (2019): per-job resource-hours ==",
		analysis.ComputeTable2Column(i19.CPUHours), analysis.ComputeTable2Column(i19.MemHours))
}

// writeFigure12 emits the log-log CCDF of per-job resource-hours.
func (s *Suite) writeFigure12(w io.Writer) error {
	c2011, _ := s.reducers()
	i19 := s.integrals2019()
	i11 := c2011.UsageIntegrals()
	grid := analysis.LogGrid(1e-5, 1e3, 1)
	return report.CCDFSeries(w, "== Figure 12: CCDF of resource-usage-hours per job ==", grid,
		map[string][]float64{
			"2019 NCU-hours": i19.CPUHours,
			"2019 NMU-hours": i19.MemHours,
			"2011 NCU-hours": i11.CPUHours,
			"2011 NMU-hours": i11.MemHours,
		})
}

// writeFigure13 emits the CPU/memory consumption correlation.
func (s *Suite) writeFigure13(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 13: median NMU-hours per 1-NCU-hour bucket (2019) ==")
	ints := s.integrals2019()
	points, pearson := analysis.CPUMemCorrelation(ints, 100)
	rows := make([][]string, 0, len(points)+1)
	for _, p := range points {
		rows = append(rows, []string{report.F(p.NCUHours), report.F(p.MedianNMU), fmt.Sprint(p.Jobs)})
	}
	rows = append(rows, []string{"Pearson r", report.F(pearson), "paper: 0.97"})
	return report.Table(w, []string{"NCU-hours bucket", "median NMU-hours", "jobs"}, rows)
}

// writeFigure14 emits the peak-slack CCDF by vertical-scaling strategy.
func (s *Suite) writeFigure14(w io.Writer) error {
	_, c2019 := s.reducers()
	fmt.Fprintln(w, "== Figure 14: peak NCU slack by autoscaling strategy (2019) ==")
	cells := make([]map[trace.VerticalScaling][]float64, len(c2019))
	for i, c := range c2019 {
		cells[i] = c.SlackSamples()
	}
	// Fresh slices, as in writeFigure11: each is sorted once in place.
	slack := analysis.MergeSamplesBy(cells)
	rows := make([][]string, 0, 3)
	for _, mode := range []trace.VerticalScaling{trace.ScalingFull, trace.ScalingConstrained, trace.ScalingNone} {
		xs := slack[mode]
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		rows = append(rows, []string{
			mode.String(),
			report.F(stats.QuantileSorted(xs, 0.25)),
			report.F(stats.QuantileSorted(xs, 0.5)),
			report.F(stats.QuantileSorted(xs, 0.75)),
			fmt.Sprint(len(xs)),
		})
	}
	rows = append(rows, []string{"paper", "full autoscaling cuts slack by >25pp for most jobs", "", "", ""})
	return report.Table(w, []string{"strategy", "slack p25 (%)", "median (%)", "p75 (%)", "samples"}, rows)
}

// --- helpers ---

func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func statRow(name string, xs []float64) []string {
	sum := stats.Summarize(xs)
	return []string{name, report.F(sum.Median), report.F(sum.Mean), report.F(sum.P90), ""}
}

func delayRow(name string, xs []float64) []string {
	sum := stats.Summarize(xs)
	return []string{name, report.F(sum.Median), report.F(sum.P90), report.F(sum.P99), fmt.Sprint(sum.N)}
}

func sortRows(rows [][]string) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && less(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func less(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
