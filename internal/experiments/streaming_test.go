package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceMetaMatchesRunAndReducer pins the one derivation of a cell's
// trace metadata: with Horizon 0, core.TraceMeta stamps the 24 h that
// core.Run simulates, and NewCellReducerFor's reducer carries the same
// Meta.
func TestTraceMetaMatchesRunAndReducer(t *testing.T) {
	spec := engine.NewSpec(3, workload.Profile2019("d", 6), core.Options{}, 5)
	meta := core.TraceMeta(spec.Profile, spec.Options)
	want := trace.Meta{Era: trace.Era2019, Cell: "d", Duration: 24 * sim.Hour, Machines: 6, Seed: spec.Options.Seed}
	if meta != want {
		t.Fatalf("TraceMeta = %+v, want %+v", meta, want)
	}
	if got := NewCellReducerFor(spec).Meta(); got != meta {
		t.Fatalf("reducer Meta = %+v, TraceMeta %+v", got, meta)
	}
	explicit := spec.Options
	explicit.Horizon = meta.Duration
	if got, want := core.Run(spec.Profile, spec.Options).Rows, core.Run(spec.Profile, explicit).Rows; got != want {
		t.Fatalf("Horizon 0 emits %+v rows, Horizon %v emits %+v", got, meta.Duration, want)
	}
}

// streamScale is small enough for CI but large enough that every figure
// has non-trivial content in all nine cells.
func streamScale() Scale {
	return Scale{Name: "stream-diff", Machines2011: 60, Machines2019: 50,
		Horizon: 6 * sim.Hour, Warmup: 2 * sim.Hour, Seed: 3}
}

// TestStreamingReportMatchesRetained is the tentpole acceptance gate: the
// full nine-cell suite run retaining no trace, its reducers fed live, must
// produce a report byte-identical to the retained suite's, whose reducers
// are fed by Replay, on the same seed.
func TestStreamingReportMatchesRetained(t *testing.T) {
	sc := streamScale()
	retained := tinySuiteAt(t, sc)

	streamed, err := RunSuiteStreaming(sc, StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range streamed.Stats {
		if res.Rows.Total() == 0 {
			t.Fatalf("cell %d emitted no rows", i)
		}
	}

	var retainedReport, streamedReport bytes.Buffer
	if err := retained.WriteReport(&retainedReport); err != nil {
		t.Fatal(err)
	}
	if err := streamed.WriteReport(&streamedReport); err != nil {
		t.Fatal(err)
	}
	if retainedReport.Len() == 0 {
		t.Fatal("empty report")
	}
	if !bytes.Equal(retainedReport.Bytes(), streamedReport.Bytes()) {
		t.Fatalf("streaming report diverges from retained report\nfirst difference near byte %d",
			firstDiff(retainedReport.Bytes(), streamedReport.Bytes()))
	}
}

// TestStreamingReportDeterministicAcrossParallelism extends the engine's
// determinism contract to the reducer path: parallel reduction must not
// change a byte.
func TestStreamingReportDeterministicAcrossParallelism(t *testing.T) {
	sc := streamScale()
	sc.Parallelism = 1
	serial, err := RunSuiteStreaming(sc, StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Parallelism = 8
	parallel, err := RunSuiteStreaming(sc, StreamingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("streaming report bytes differ between parallelism 1 and 8")
	}
}

// TestStreamingExportShards drives the trace/io.go codecs through the
// sink pipeline: a streaming run exports per-cell CSV shards while
// simulating, and each shard must read back exactly the rows a retained
// run produced — including the tail rows only a correct Flush ordering
// delivers — and hold, file for file and byte for byte (meta.json
// included), what trace.WriteDir writes for the retained trace.
func TestStreamingExportShards(t *testing.T) {
	sc := streamScale()
	dir, postDir := t.TempDir(), t.TempDir()
	if _, err := RunSuiteStreaming(sc, StreamingOptions{ExportDir: dir}); err != nil {
		t.Fatal(err)
	}
	retained := tinySuiteAt(t, sc)
	traces := append([]*trace.MemTrace{retained.T2011}, retained.T2019...)
	for i, want := range traces {
		name := ShardDirName(i, want.Meta.Cell)
		if err := trace.WriteDir(want, filepath.Join(postDir, name)); err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(dir, name)
		got, err := trace.ReadDir(shard)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if got.Meta != want.Meta {
			t.Fatalf("shard %d meta %+v != %+v", i, got.Meta, want.Meta)
		}
		if !reflect.DeepEqual(got.CollectionEvents, want.CollectionEvents) {
			t.Fatalf("shard %d collection events differ", i)
		}
		if !reflect.DeepEqual(got.InstanceEvents, want.InstanceEvents) {
			t.Fatalf("shard %d instance events differ", i)
		}
		if !reflect.DeepEqual(got.UsageRecords, want.UsageRecords) {
			t.Fatalf("shard %d usage records differ (tail lost to a missing flush?)", i)
		}
		if !reflect.DeepEqual(got.MachineEvents, want.MachineEvents) {
			t.Fatalf("shard %d machine events differ", i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("expected 9 shards, found %d", len(entries))
	}
	compareShardBytes(t, postDir, dir)
}

// tinySuiteAt caches retained suites per scale so the three tests above
// share one simulation of each configuration. Scale is not comparable
// (it carries a Replay slice), so the cache keys on its printed form.
var retainedCache = map[string]*Suite{}

func tinySuiteAt(t *testing.T, sc Scale) *Suite {
	t.Helper()
	key := fmt.Sprintf("%+v", sc)
	if s, ok := retainedCache[key]; ok {
		return s
	}
	s := RunSuite(sc)
	retainedCache[key] = s
	return s
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
