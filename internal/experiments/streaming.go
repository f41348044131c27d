package experiments

import (
	"fmt"

	"repro/internal/analysis/streaming"
	"repro/internal/engine"
	"repro/internal/trace"
)

// StreamingOptions configures a NoMemTrace suite run.
type StreamingOptions struct {
	// ExportDir, when non-empty, additionally writes each cell's trace as
	// sharded CSV while simulating: one subdirectory per cell (named
	// cell-<index>-<name>), each in the WriteDir layout, fed through a
	// BufferedSink so the per-row cost is amortized.
	ExportDir string
	// ExportBatch is the export buffering batch size; <= 0 means
	// trace.DefaultBatchSize.
	ExportBatch int
}

// NewCellReducerFor builds the streaming reducer matching one cell spec:
// metadata equal to what core.Run would stamp on a retained trace, and
// the Figure 6 snapshot pinned at mid-horizon.
func NewCellReducerFor(spec engine.Spec) *streaming.CellReducer {
	return streaming.NewCellReducer(streaming.Config{
		Meta: trace.Meta{
			Era:      spec.Profile.Era,
			Cell:     spec.Profile.Name,
			Duration: spec.Options.Horizon,
			Machines: spec.Profile.Machines,
			Seed:     spec.Options.Seed,
		},
		SnapshotAt: spec.Options.Horizon / 2,
	})
}

// ShardDirName names cell i's export shard (index 0 is the 2011 cell).
func ShardDirName(i int, cell string) string {
	return fmt.Sprintf("cell-%d-%s", i, cell)
}

func closeExports(exports []*trace.DirSink) {
	for _, ds := range exports {
		ds.Close()
	}
}
