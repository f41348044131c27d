package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunMatchesRetainedWrite runs the command at its smoke flags
// (-machines 40 -hours 2 -seed 3) and requires meta.json and the four
// CSV tables to be byte-identical to trace.WriteDir of a retained run of
// the same cell, with the live validator finding nothing.
func TestRunMatchesRetainedWrite(t *testing.T) {
	profile := workload.Profile2019("a", 40)
	horizon := sim.FromHours(2)
	const seed = 3
	root := t.TempDir()
	streamed, retained := filepath.Join(root, "streamed"), filepath.Join(root, "retained")

	var logs bytes.Buffer
	if err := run(log.New(&logs, "", 0), profile, horizon, seed, streamed, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "validator: all invariants hold") {
		t.Fatalf("no validator verdict in the log:\n%s", logs.String())
	}
	opts := core.Options{Horizon: horizon, Seed: seed}
	mem := trace.NewMemTrace(core.TraceMeta(profile, opts))
	opts.Sinks = []trace.Sink{mem}
	core.Run(profile, opts)
	if err := trace.WriteDir(mem, retained); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta.json", "collection_events.csv", "instance_events.csv", "instance_usage.csv", "machine_events.csv"} {
		a, err := os.ReadFile(filepath.Join(streamed, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(retained, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: borgtrace wrote %d bytes, retained write %d; want identical non-empty files", name, len(a), len(b))
		}
	}
}
