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

// scalarOnly hides every optional sink capability — UsageBatcher in
// particular — so trace.EmitUsageBatch falls back to per-record delivery
// downstream of it. Flush passes through: buffered tails must still
// drain, that is delivery shape, not batching.
type scalarOnly struct{ out trace.Sink }

func (s scalarOnly) CollectionEvent(ev trace.CollectionEvent) { s.out.CollectionEvent(ev) }
func (s scalarOnly) InstanceEvent(ev trace.InstanceEvent)     { s.out.InstanceEvent(ev) }
func (s scalarOnly) Usage(rec trace.UsageRecord)              { s.out.Usage(rec) }
func (s scalarOnly) MachineEvent(ev trace.MachineEvent)       { s.out.MachineEvent(ev) }
func (s scalarOnly) Flush()                                   { trace.Flush(s.out) }

// runSuiteStreamingDelivery is RunSuiteStreaming with the usage delivery
// mode forced: batched leaves the pipeline as production wires it; scalar
// interposes scalarOnly around every reducer, export buffer and export
// writer, so each usage row travels the pre-batching one-call-per-record
// path end to end.
func runSuiteStreamingDelivery(t *testing.T, sc Scale, exportDir string, scalar bool) *Suite {
	t.Helper()
	specs := SuiteSpecs(sc)
	reducers := make([]*streaming.CellReducer, len(specs))
	for i, spec := range specs {
		reducers[i] = NewCellReducerFor(spec)
	}

	var exports []*trace.DirSink
	for i := range specs {
		if scalar {
			specs[i].Options.ExtraSinks = append(specs[i].Options.ExtraSinks, scalarOnly{reducers[i]})
		} else {
			specs[i].Options.ExtraSinks = append(specs[i].Options.ExtraSinks, reducers[i])
		}
		specs[i].Options.NoMemTrace = true
		shard := filepath.Join(exportDir, ShardDirName(i, specs[i].Profile.Name))
		ds, err := trace.NewDirSink(shard, reducers[i].Meta())
		if err != nil {
			t.Fatal(err)
		}
		exports = append(exports, ds)
		var export trace.Sink
		if scalar {
			export = scalarOnly{trace.NewBufferedSink(scalarOnly{ds}, 0)}
		} else {
			export = trace.NewBufferedSink(ds, 0)
		}
		specs[i].Options.ExtraSinks = append(specs[i].Options.ExtraSinks, export)
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

// TestBatchedScalarDeliveryByteIdentical is the batching acceptance gate:
// at the same seed, batched and scalar usage delivery must produce
// byte-identical reports and byte-identical CSV export shards, at
// parallelism 1 and 8. Any batch that splits, reorders or drops a record
// relative to scalar delivery shows up here as a byte diff.
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
			t.Fatalf("export shard file %s differs between batched and scalar delivery", rel)
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
}
