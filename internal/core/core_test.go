package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runRetained runs p under opts with a MemTrace built from TraceMeta
// attached, and returns the result and the retained trace.
func runRetained(p *workload.CellProfile, opts Options) (*CellResult, *trace.MemTrace) {
	tr := trace.NewMemTrace(TraceMeta(p, opts))
	opts.Sinks = append(opts.Sinks, tr)
	return Run(p, opts), tr
}

// smallRun simulates a small 2019 cell; shared across tests via sync once
// semantics would hide determinism issues, so each test runs its own.
func smallRun(t *testing.T, seed uint64) (*CellResult, *trace.MemTrace) {
	t.Helper()
	p := workload.Profile2019("a", 120)
	return runRetained(p, Options{Horizon: 8 * sim.Hour, Seed: seed})
}

func TestRunProducesTrace(t *testing.T) {
	res, tr := smallRun(t, 1)
	if len(tr.MachineEvents) != 120 {
		t.Fatalf("machine events %d", len(tr.MachineEvents))
	}
	if len(tr.CollectionEvents) == 0 || len(tr.InstanceEvents) == 0 || len(tr.UsageRecords) == 0 {
		t.Fatalf("empty trace: %s", tr.Counts())
	}
	if res.Sched.JobsSubmitted < 50 {
		t.Fatalf("jobs submitted %d", res.Sched.JobsSubmitted)
	}
	if res.Sched.TasksPlaced == 0 {
		t.Fatal("no tasks placed")
	}
	if res.AutopilotUpdates == 0 {
		t.Fatal("autopilot never adjusted a limit")
	}
}

func TestTraceValidates(t *testing.T) {
	_, tr := smallRun(t, 2)
	violations := trace.Validate(tr, trace.DefaultValidateOptions())
	if len(violations) != 0 {
		t.Fatalf("%d violations, first: %v", len(violations), violations[0])
	}
}

func TestDeterminism(t *testing.T) {
	_, ta := smallRun(t, 7)
	_, tb := smallRun(t, 7)
	if len(ta.CollectionEvents) != len(tb.CollectionEvents) ||
		len(ta.InstanceEvents) != len(tb.InstanceEvents) ||
		len(ta.UsageRecords) != len(tb.UsageRecords) {
		t.Fatalf("row counts differ: %s vs %s", ta.Counts(), tb.Counts())
	}
	for i := range ta.CollectionEvents {
		if ta.CollectionEvents[i] != tb.CollectionEvents[i] {
			t.Fatalf("collection event %d differs: %+v vs %+v", i, ta.CollectionEvents[i], tb.CollectionEvents[i])
		}
	}
	for i := range ta.InstanceEvents {
		if ta.InstanceEvents[i] != tb.InstanceEvents[i] {
			t.Fatalf("instance event %d differs", i)
		}
	}
	for i := range ta.UsageRecords {
		if ta.UsageRecords[i] != tb.UsageRecords[i] {
			t.Fatalf("usage record %d differs: %+v vs %+v", i, ta.UsageRecords[i], tb.UsageRecords[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	_, a := smallRun(t, 1)
	_, b := smallRun(t, 99)
	if len(a.CollectionEvents) == len(b.CollectionEvents) &&
		len(a.UsageRecords) == len(b.UsageRecords) {
		// Counts could coincide; compare content of the first events.
		same := true
		for i := 0; i < 50 && i < len(a.CollectionEvents); i++ {
			if a.CollectionEvents[i] != b.CollectionEvents[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestUtilizationInSaneBand(t *testing.T) {
	_, tr := smallRun(t, 3)
	// Average CPU usage as a fraction of capacity over the second half
	// of the run (post-warmup) should be meaningful but below 1.
	var capCPU float64
	for _, ev := range tr.MachineEvents {
		capCPU += ev.Capacity.CPU // the simulator only adds machines
	}
	half := tr.Meta.Duration / 2
	var usageHours float64
	for _, rec := range tr.UsageRecords {
		if rec.Start >= half {
			usageHours += rec.AvgUsage.CPU * (rec.End - rec.Start).Hours()
		}
	}
	if usageHours == 0 {
		t.Fatal("no post-warmup usage")
	}
	frac := usageHours / ((tr.Meta.Duration - half).Hours() * capCPU)
	if frac < 0.10 || frac > 0.95 {
		t.Fatalf("post-warmup CPU utilization %v outside sane band", frac)
	}
}

func TestSinksSeeEverything(t *testing.T) {
	p := workload.Profile2019("b", 80)
	extra := trace.NewMemTrace(trace.Meta{})
	res, tr := runRetained(p, Options{Horizon: 4 * sim.Hour, Seed: 5, Sinks: []trace.Sink{extra}})
	if len(extra.CollectionEvents) != len(tr.CollectionEvents) ||
		len(extra.UsageRecords) != len(tr.UsageRecords) {
		t.Fatalf("extra sink missed rows: %s vs %s", extra.Counts(), tr.Counts())
	}
	got := trace.RowCounts{Collections: int64(len(extra.CollectionEvents)), Instances: int64(len(extra.InstanceEvents)),
		Usage: int64(len(extra.UsageRecords)), Machines: int64(len(extra.MachineEvents))}
	if got != res.Rows {
		t.Fatalf("sink rows %+v, counted %+v", got, res.Rows)
	}
}

func TestIDBaseSeparatesCells(t *testing.T) {
	p := workload.Profile2019("a", 60)
	_, a := runRetained(p, Options{Horizon: 2 * sim.Hour, Seed: 1, IDBase: 0})
	_, b := runRetained(p, Options{Horizon: 2 * sim.Hour, Seed: 2, IDBase: 1 << 32})
	for _, ev := range b.CollectionEvents {
		if ev.Collection <= 1<<32 {
			t.Fatalf("collection id %d below IDBase", ev.Collection)
		}
	}
	for _, ev := range a.CollectionEvents {
		if ev.Collection >= 1<<32 {
			t.Fatalf("collection id %d above expected range", ev.Collection)
		}
	}
}

func Test2011ProfileRuns(t *testing.T) {
	p := workload.Profile2011(120)
	res, tr := runRetained(p, Options{Horizon: 8 * sim.Hour, Seed: 11})
	if tr.Meta.Era != trace.Era2011 {
		t.Fatal("era")
	}
	violations := trace.Validate(tr, trace.DefaultValidateOptions())
	if len(violations) != 0 {
		t.Fatalf("%d violations, first: %v", len(violations), violations[0])
	}
	// No 2019-only features in the event stream.
	for _, ev := range tr.CollectionEvents {
		if ev.Type == trace.EventQueue {
			t.Fatal("2011 trace has batch QUEUE events")
		}
		if ev.CollectionType == trace.CollectionAllocSet {
			t.Fatal("2011 trace has alloc sets")
		}
	}
	if res.AutopilotUpdates != 0 {
		t.Fatalf("2011 autopilot updates %d", res.AutopilotUpdates)
	}
}

func TestDisableAutopilot(t *testing.T) {
	p := workload.Profile2019("a", 60)
	res, tr := runRetained(p, Options{Horizon: 4 * sim.Hour, Seed: 6, DisableAutopilot: true})
	if res.AutopilotUpdates != 0 {
		t.Fatalf("autopilot updates %d with autopilot disabled", res.AutopilotUpdates)
	}
	for _, ev := range tr.InstanceEvents {
		if ev.Type == trace.EventUpdateRunning {
			t.Fatal("UPDATE_RUNNING with autopilot disabled")
		}
	}
}

func TestSchedulingDelaysPositive(t *testing.T) {
	_, tr := smallRun(t, 8)
	// For every job with a SCHEDULE, the first SCHEDULE must come at or
	// after the ENABLE.
	enable := map[trace.CollectionID]sim.Time{}
	for _, ev := range tr.CollectionEvents {
		if ev.Type == trace.EventEnable {
			enable[ev.Collection] = ev.Time
		}
	}
	firstRun := map[trace.CollectionID]sim.Time{}
	for _, ev := range tr.InstanceEvents {
		if ev.Type == trace.EventSchedule {
			if cur, ok := firstRun[ev.Key.Collection]; !ok || ev.Time < cur {
				firstRun[ev.Key.Collection] = ev.Time
			}
		}
	}
	checked := 0
	for id, fr := range firstRun {
		en, ok := enable[id]
		if !ok {
			continue
		}
		if fr < en {
			t.Fatalf("job %d first run %v before enable %v", id, fr, en)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("too few jobs checked: %d", checked)
	}
}
