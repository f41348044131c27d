package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// oneRecordBlocks re-sends every usage block downstream as one-record
// blocks, in order: the per-row delivery shape. Flush passes through so
// the export writer still drains.
type oneRecordBlocks struct{ out trace.Sink }

func (s oneRecordBlocks) CollectionEvent(ev trace.CollectionEvent) { s.out.CollectionEvent(ev) }
func (s oneRecordBlocks) InstanceEvent(ev trace.InstanceEvent)     { s.out.InstanceEvent(ev) }
func (s oneRecordBlocks) MachineEvent(ev trace.MachineEvent)       { s.out.MachineEvent(ev) }
func (s oneRecordBlocks) Flush()                                   { trace.Flush(s.out) }
func (s oneRecordBlocks) Usage(recs []trace.UsageRecord) {
	for i := range recs {
		s.out.Usage(recs[i : i+1])
	}
}

// runSuiteStreamingDelivery is RunSuiteStreaming with every cell's rows
// also exported to exportDir. With scalar set, oneRecordBlocks sits in
// front of every reducer and every export writer, so each usage row
// travels in a block of its own; otherwise blocks arrive as the sampler
// cut them, one per machine-window.
func runSuiteStreamingDelivery(t *testing.T, sc Scale, exportDir string, scalar bool) *Suite {
	t.Helper()
	specs := SuiteSpecs(sc)
	reducers := make([]*streaming.CellReducer, len(specs))
	for i, spec := range specs {
		reducers[i] = NewCellReducerFor(spec)
	}

	var exports []*trace.DirSink
	for i := range specs {
		shard := filepath.Join(exportDir, ShardDirName(i, specs[i].Profile.Name))
		ds, err := trace.NewDirSink(shard, reducers[i].Meta())
		if err != nil {
			t.Fatal(err)
		}
		exports = append(exports, ds)
		var reducer, export trace.Sink = reducers[i], ds
		if scalar {
			reducer, export = oneRecordBlocks{reducer}, oneRecordBlocks{export}
		}
		specs[i].Options.Sinks = append(specs[i].Options.Sinks, reducer, export)
	}

	s := &Suite{Scale: sc, cells: reducers}
	err := engine.Run(engine.Plan{
		Cells: len(specs), Parallelism: sc.Parallelism,
		Spec:     func(i int) engine.Spec { return specs[i] },
		OnResult: func(_ int, r *core.CellResult) { s.Stats = append(s.Stats, *r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range exports {
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestBatchedScalarDeliveryByteIdentical pins chunking invariance: at
// the same seed, usage rows delivered in the sampler's machine-window
// blocks and the same rows re-sent as one-record blocks must produce
// byte-identical reports and byte-identical CSV export shards, at
// parallelism 1 and 8. A sink whose result depends on where a block
// boundary falls shows up here as a byte diff.
func TestBatchedScalarDeliveryByteIdentical(t *testing.T) {
	sc := Scale{Name: "tiny", Machines2011: 40, Machines2019: 30,
		Horizon: 3 * sim.Hour, Warmup: sim.Hour, Seed: 11}

	var firstReport []byte
	for _, par := range []int{1, 8} {
		sc.Parallelism = par
		batchedDir, scalarDir := t.TempDir(), t.TempDir()
		batched := runSuiteStreamingDelivery(t, sc, batchedDir, false)
		scalar := runSuiteStreamingDelivery(t, sc, scalarDir, true)

		var rb, rs bytes.Buffer
		if err := batched.WriteReport(&rb); err != nil {
			t.Fatal(err)
		}
		if err := scalar.WriteReport(&rs); err != nil {
			t.Fatal(err)
		}
		if rb.Len() == 0 {
			t.Fatal("empty report")
		}
		if !bytes.Equal(rb.Bytes(), rs.Bytes()) {
			t.Fatalf("parallelism %d: batched and scalar reports differ", par)
		}
		if firstReport == nil {
			firstReport = rb.Bytes()
		} else if !bytes.Equal(firstReport, rb.Bytes()) {
			t.Fatalf("parallelism %d: report differs from parallelism 1", par)
		}

		compareShardBytes(t, batchedDir, scalarDir)
	}
}

// compareShardBytes asserts the two export trees hold the same files with
// the same bytes.
func compareShardBytes(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	n := 0
	err := filepath.Walk(wantDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(wantDir, path)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(gotDir, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("export shard file %s differs between %s and %s", rel, wantDir, gotDir)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no export files compared")
	}
	if got := countFiles(t, gotDir); got != n {
		t.Fatalf("%s holds %d files, want %d", gotDir, got, n)
	}
}

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
