// Quickstart: simulate a small 2019-profile Borg cell for six hours,
// validate the resulting trace, and print headline statistics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/streaming"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A 100-machine cell with cell a's workload mix, simulated for 6 hours.
	profile := workload.Profile2019("a", 100)
	opts := core.Options{Horizon: 6 * sim.Hour, Seed: 42}
	tr := trace.NewMemTrace(core.TraceMeta(profile, opts))
	opts.Sinks = []trace.Sink{tr}
	res := core.Run(profile, opts)

	fmt.Printf("cell %s simulated: %s\n", profile.Name, tr.Counts())
	fmt.Printf("scheduler stats: %+v\n\n", res.Sched)

	// The trace passes the §9 invariant pipeline.
	if v := trace.Validate(tr, trace.DefaultValidateOptions()); len(v) > 0 {
		log.Fatalf("trace invariants violated: %v", v[0])
	}
	fmt.Println("trace validates: submit-before-terminate, capacity, parent-kill all hold")

	// The analyses: replay the retained trace through a reducer.
	r := streaming.Replay(tr, streaming.Config{Meta: tr.Meta, SnapshotAt: tr.Meta.Duration / 2})

	// Tier-level utilization, Figure 3 style.
	av := r.AverageUsageByTier(2 * sim.Hour)
	if err := report.TierAveragesTable(os.Stdout,
		"\naverage usage as fraction of cell capacity (post-warmup)",
		[]analysis.TierAverages{av}, "cpu"); err != nil {
		log.Fatal(err)
	}

	// Scheduling delay, Figure 10 style.
	delays := r.Delays()
	all, byTier := delays.All, delays.ByTier
	fmt.Printf("\nscheduling delay: median %.2fs (n=%d)\n", stats.Quantile(all, 0.5), len(all))
	for _, tier := range trace.Tiers() {
		if xs := byTier[tier]; len(xs) > 0 {
			fmt.Printf("  %-4s median %.2fs  p90 %.2fs\n",
				tier, stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.9))
		}
	}
}
