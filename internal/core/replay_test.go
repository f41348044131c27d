package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func tracesEqual(t *testing.T, label string, a, b *trace.MemTrace) bool {
	t.Helper()
	ok := true
	if !reflect.DeepEqual(a.CollectionEvents, b.CollectionEvents) {
		t.Errorf("%s: collection events differ (%d vs %d)", label, len(a.CollectionEvents), len(b.CollectionEvents))
		ok = false
	}
	if !reflect.DeepEqual(a.InstanceEvents, b.InstanceEvents) {
		t.Errorf("%s: instance events differ (%d vs %d)", label, len(a.InstanceEvents), len(b.InstanceEvents))
		ok = false
	}
	if !reflect.DeepEqual(a.UsageRecords, b.UsageRecords) {
		t.Errorf("%s: usage records differ (%d vs %d)", label, len(a.UsageRecords), len(b.UsageRecords))
		ok = false
	}
	if !reflect.DeepEqual(a.MachineEvents, b.MachineEvents) {
		t.Errorf("%s: machine events differ (%d vs %d)", label, len(a.MachineEvents), len(b.MachineEvents))
		ok = false
	}
	return ok
}

func replayOpts() Options {
	return Options{Horizon: 6 * sim.Hour, Seed: 11, IDBase: 1 << 32}
}

// TestReplayReproducesRecordingRun pins the replay fidelity contract at
// the cell level: a run that replays its own recording at the same seed
// produces the recording run's trace byte for byte — the workload stream
// carries every workload-split draw, and the other rng streams
// (machines, scheduler, maintenance, usage) are untouched by skipping
// the generator.
func TestReplayReproducesRecordingRun(t *testing.T) {
	opts := replayOpts()
	opts.RecordWorkload = true
	rec, recTr := runRetained(workload.Profile2019("a", 180), opts)
	if rec.Workload == nil || len(rec.Workload.Arrivals) == 0 {
		t.Fatal("RecordWorkload run captured no workload")
	}

	opts2 := replayOpts()
	opts2.Replay = rec.Workload
	_, repTr := runRetained(workload.Profile2019("a", 180), opts2)
	if !tracesEqual(t, "record vs replay", recTr, repTr) {
		t.Fatal("replaying a cell's own recording did not reproduce its trace")
	}
}

// TestReplayIdenticalAcrossPolicies pins workload/policy separation:
// replaying one recording under two placement policies re-records byte-
// identical workload files (the arrival stream is policy-independent)
// while the schedulers place it differently.
func TestReplayIdenticalAcrossPolicies(t *testing.T) {
	opts := replayOpts()
	opts.RecordWorkload = true
	rec := Run(workload.Profile2019("a", 180), opts)

	var files [2][]byte
	var traces [2]*trace.MemTrace
	for i, policy := range []string{"random-fit", "best-fit"} {
		o := replayOpts()
		o.Policy = policy
		o.Replay = rec.Workload
		o.RecordWorkload = true
		res, tr := runRetained(workload.Profile2019("a", 180), o)
		var buf bytes.Buffer
		if _, err := res.Workload.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		files[i] = buf.Bytes()
		traces[i] = tr
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("re-recorded workload files differ across policies — replay is leaking policy into the workload")
	}
	if reflect.DeepEqual(traces[0].InstanceEvents, traces[1].InstanceEvents) {
		t.Fatal("random-fit and best-fit produced identical instance events under replay — policy override inert")
	}
}

// TestReplayIgnoresArrivalOverride: under replay the recorded stream
// wins; an -arrival override must not change the trace.
func TestReplayIgnoresArrivalOverride(t *testing.T) {
	opts := replayOpts()
	opts.RecordWorkload = true
	rec := Run(workload.Profile2019("a", 180), opts)

	a := replayOpts()
	a.Replay = rec.Workload
	_, plain := runRetained(workload.Profile2019("a", 180), a)

	b := replayOpts()
	b.Replay = rec.Workload
	b.Arrival = "gamma:cv=2.5"
	_, overridden := runRetained(workload.Profile2019("a", 180), b)
	if !tracesEqual(t, "replay vs replay+arrival", plain, overridden) {
		t.Fatal("arrival override changed a replayed run")
	}
}
