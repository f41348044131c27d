package trace_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// untruncated is the default validation with no cap on findings, so
// result multisets can be compared whole.
func untruncated() trace.ValidateOptions {
	opts := trace.DefaultValidateOptions()
	opts.MaxViolations = 0
	return opts
}

// TestValidatorMatchesOracleOnSuite runs the nine suite cells (the 2011
// cell, then 2019 a–h, at 60/50 machines, 6 hours, root seed 3) with a
// Validator attached live and the trace retained. On each cell the live
// result, Validate, a replay in one-record usage blocks and the walker
// oracle must agree; the simulator's traces hold every invariant, so a
// corrupted copy of each is compared as well.
func TestValidatorMatchesOracleOnSuite(t *testing.T) {
	const horizon, root = 6 * sim.Hour, 3
	profiles := []*workload.CellProfile{workload.Profile2011(60)}
	for _, cell := range workload.Cells2019() {
		profiles = append(profiles, workload.Profile2019(cell, 50))
	}
	live := make([]*trace.Validator, len(profiles))
	retained := make([]*trace.MemTrace, len(profiles))
	opts := untruncated()
	cells := 0
	err := engine.Run(engine.Plan{
		Cells:       len(profiles),
		Parallelism: 2,
		Spec: func(i int) engine.Spec {
			spec := engine.NewSpec(i, profiles[i], core.Options{Horizon: horizon}, root)
			live[i] = trace.NewValidator(opts)
			retained[i] = trace.NewMemTrace(core.TraceMeta(spec.Profile, spec.Options))
			spec.Options.Sinks = []trace.Sink{live[i], retained[i]}
			return spec
		},
		OnResult: func(i int, _ *core.CellResult) {
			cells++
			tr := retained[i]
			want := trace.ViolationSet(trace.ValidateOracle(tr, opts))
			if len(want) != 0 {
				t.Errorf("cell %s: oracle finds %d violations, first %s", tr.Meta.Cell, len(want), want[0])
			}
			if got := trace.ViolationSet(live[i].Violations()); !slices.Equal(got, want) {
				t.Errorf("cell %s: live validator %q, oracle %q", tr.Meta.Cell, got, want)
			}
			checkAgainstOracle(t, tr.Meta.Cell, tr)
			bad := corrupt(tr)
			if n := len(trace.ValidateOracle(bad, opts)); n == 0 {
				t.Errorf("cell %s: corrupted copy holds every invariant", tr.Meta.Cell)
			}
			checkAgainstOracle(t, tr.Meta.Cell+" corrupted", bad)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells != len(profiles) {
		t.Fatalf("%d cells delivered, want %d", cells, len(profiles))
	}
}

// checkAgainstOracle fails unless Validate and a one-record-block replay
// report the oracle's multiset of violations on tr.
func checkAgainstOracle(t *testing.T, name string, tr *trace.MemTrace) {
	t.Helper()
	opts := untruncated()
	want := trace.ViolationSet(trace.ValidateOracle(tr, opts))
	if got := trace.ViolationSet(trace.Validate(tr, opts)); !slices.Equal(got, want) {
		t.Errorf("%s: Validate reports %d violations, oracle %d", name, len(got), len(want))
	}
	v := trace.NewValidator(opts)
	trace.ReplayOneRecordBlocks(tr, v)
	if got := trace.ViolationSet(v.Violations()); !slices.Equal(got, want) {
		t.Errorf("%s: one-record blocks report %d violations, oracle %d", name, len(got), len(want))
	}
}

// corrupt returns a copy of tr that breaks every kind of invariant:
// dropped machine, collection and instance rows, instance events moved
// back in time or onto an unknown machine, and inflated usage.
func corrupt(tr *trace.MemTrace) *trace.MemTrace {
	out := trace.NewMemTrace(tr.Meta)
	for i, ev := range tr.MachineEvents {
		if i%11 != 5 {
			out.MachineEvent(ev)
		}
	}
	for i, ev := range tr.CollectionEvents {
		if i%37 != 3 {
			out.CollectionEvent(ev)
		}
	}
	for i, ev := range tr.InstanceEvents {
		switch {
		case i%41 == 7:
			continue
		case i%53 == 11:
			ev.Time -= 2 * sim.Hour
		case i%59 == 13 && ev.Type == trace.EventSchedule:
			ev.Machine = 1 << 30
		}
		out.InstanceEvent(ev)
	}
	usage := slices.Clone(tr.UsageRecords)
	for i := 17; i < len(usage); i += 31 {
		usage[i].AvgUsage = usage[i].AvgUsage.Scale(40)
	}
	out.Usage(usage)
	return out
}
