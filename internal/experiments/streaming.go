package experiments

import (
	"fmt"

	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/engine"
)

// StreamingOptions configures a RunSuiteStreaming run.
type StreamingOptions struct {
	// ExportDir, when non-empty, additionally writes each cell's trace as
	// sharded CSV while simulating: one subdirectory per cell (named
	// cell-<index>-<name>), each written by its own trace.DirSink in the
	// WriteDir layout, byte-identical to WriteDir of the retained trace.
	ExportDir string
}

// NewCellReducerFor builds the streaming reducer matching one cell spec:
// metadata from core.TraceMeta, and the Figure 6 snapshot pinned at
// mid-horizon.
func NewCellReducerFor(spec engine.Spec) *streaming.CellReducer {
	meta := core.TraceMeta(spec.Profile, spec.Options)
	return streaming.NewCellReducer(streaming.Config{Meta: meta, SnapshotAt: meta.Duration / 2})
}

// ShardDirName names cell i's export shard (index 0 is the 2011 cell).
func ShardDirName(i int, cell string) string {
	return fmt.Sprintf("cell-%d-%s", i, cell)
}
