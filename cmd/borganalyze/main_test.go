package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunGoldenHash pins borganalyze's output bytes on a small cell
// written with trace.WriteDir and read back, the path the command takes.
func TestRunGoldenHash(t *testing.T) {
	const (
		wantHash  = "98ed420424e037e9bd9ab57bc865256b6e49e50392da701d4161e32504b49da8"
		wantBytes = 2946
	)
	res := core.Run(workload.Profile2019("c", 40), core.Options{Horizon: 3 * sim.Hour, Seed: 9})
	dir := filepath.Join(t.TempDir(), "trace-c")
	if err := trace.WriteDir(res.Trace, dir); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run(&b, tr, sim.Hour); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != wantHash || b.Len() != wantBytes {
		t.Fatalf("borganalyze output moved: sha256 %s (%d bytes), want %s (%d bytes)\n%s",
			got, b.Len(), wantHash, wantBytes, b.String())
	}
}
