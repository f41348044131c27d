package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis/streaming"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzReadDir feeds arbitrary file contents to ReadDir, one argument per
// file in trace.TableFiles order. No input may crash the reader or the
// borganalyze path behind it: ReadDir either errors or returns a trace
// that streaming.Replay folds. On an accepted trace the streaming
// validator must report the walker oracle's violations, untruncated, and
// the trace must round-trip: written with WriteDir and read back, it
// writes the same bytes again. The seeds
// are a WriteDir fixture, that fixture with the corrupt and bad-enum
// collection tables, and metadata outside ReadDir's Duration bounds.
func FuzzReadDir(f *testing.F) {
	good := readFiles(f, writeDir(f, trace.NewTestTrace()))
	f.Add(good[0], good[1], good[2], good[3], good[4])
	f.Add(good[0], []byte(trace.CorruptRowCSV), good[2], good[3], good[4])
	f.Add(good[0], []byte(trace.BadEnumCSV), good[2], good[3], good[4])
	for _, d := range []sim.Time{-sim.Hour, trace.MaxDuration + 1} {
		tr := trace.NewTestTrace()
		tr.Meta.Duration = d
		meta := readFiles(f, writeDir(f, tr))[0]
		f.Add(meta, good[1], good[2], good[3], good[4])
	}
	// Each fuzz worker runs inputs one at a time, so one set of
	// directories per worker serves every input; fresh temporary
	// directories per input would triple the cost of an execution.
	root := f.TempDir()
	in, first, second := filepath.Join(root, "in"), filepath.Join(root, "first"), filepath.Join(root, "second")
	if err := os.Mkdir(in, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, meta, coll, inst, usage, mach []byte) {
		for i, data := range [][]byte{meta, coll, inst, usage, mach} {
			if err := os.WriteFile(filepath.Join(in, trace.TableFiles[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := trace.ReadDir(in)
		if err != nil {
			return
		}
		streaming.Replay(tr, streaming.Config{Meta: tr.Meta, SnapshotAt: tr.Meta.Duration / 2})
		opts := untruncated()
		want := trace.ViolationSet(trace.ValidateOracle(tr, opts))
		if got := trace.ViolationSet(trace.Validate(tr, opts)); !slices.Equal(got, want) {
			t.Fatalf("Validate reports\n%q\noracle\n%q", got, want)
		}
		if err := trace.WriteDir(tr, first); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadDir(first)
		if err != nil {
			t.Fatalf("written form of an accepted trace does not read back: %v", err)
		}
		if err := trace.WriteDir(back, second); err != nil {
			t.Fatal(err)
		}
		a, b := readFiles(t, first), readFiles(t, second)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s changed across a round trip:\n%q\n%q", trace.TableFiles[i], a[i], b[i])
			}
		}
	})
}

// writeDir writes tr with WriteDir into a fresh directory.
func writeDir(tb testing.TB, tr *trace.MemTrace) string {
	tb.Helper()
	dir := tb.TempDir()
	if err := trace.WriteDir(tr, dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// readFiles returns the contents of a WriteDir directory, in
// trace.TableFiles order.
func readFiles(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	out := make([][]byte, len(trace.TableFiles))
	for i, name := range trace.TableFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out
}
