// Command borgtrace simulates one Borg cell and writes its trace to disk
// as CSV tables (collection_events, instance_events, instance_usage,
// machine_events) plus meta.json — the reproduction's analogue of
// downloading one cell of the published trace.
//
// Large -machines counts are practical because placement cost does not
// grow with cell occupancy: the scheduler's fast path (incremental
// machine aggregates plus equivalence-class score caching, see the
// package docs) keeps each placement attempt allocation-free and O(1)
// per candidate. For a given build, the trace for a given (era, cell,
// machines, hours, seed) tuple is byte-stable; traces are not promised
// stable across versions of the simulator.
//
// Rows are written while the simulation runs, through a buffered
// trace.DirSink, and no trace is retained in memory. With -validate (the
// default) a trace.Validator checks the §9 invariants on the same
// stream. The validator keeps one summed usage vector per occupied
// machine-window, about 40 B each, so its memory grows with machines ×
// hours; a month-scale run whose memory must stay flat passes
// -validate=false.
//
// Usage:
//
//	borgtrace -era 2019 -cell b -machines 300 -hours 24 -seed 7 -out ./trace-b
//	borgtrace -era 2019 -cell b -machines 300 -hours 720 -seed 7 -validate=false -out ./trace-b
package main

import (
	"flag"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgtrace: ")
	era := flag.String("era", "2019", "trace era: 2011 or 2019")
	cell := flag.String("cell", "a", "2019 cell name (a-h); ignored for 2011")
	machines := flag.Int("machines", 200, "machines in the simulated cell")
	hours := flag.Float64("hours", 24, "simulated duration in hours")
	seed := flag.Uint64("seed", 1, "root random seed")
	out := flag.String("out", "trace-out", "output directory")
	validate := flag.Bool("validate", true, "check the §9 invariants while simulating (memory grows with machines × hours)")
	flag.Parse()

	var profile *workload.CellProfile
	switch *era {
	case "2011":
		profile = workload.Profile2011(*machines)
	case "2019":
		profile = workload.Profile2019(*cell, *machines)
	default:
		log.Fatalf("unknown era %q", *era)
	}
	if *hours <= 0 {
		log.Fatalf("-hours must be positive, got %v", *hours)
	}
	if err := run(log.Default(), profile, sim.FromHours(*hours), *seed, *out, *validate); err != nil {
		log.Fatal(err)
	}
}

// run simulates profile for horizon at seed, writing the trace into dir
// as it is emitted and, when validate is set, checking the §9 invariants
// on the same stream. Violations are logged, not returned: the trace is
// written either way.
func run(logger *log.Logger, profile *workload.CellProfile, horizon sim.Time, seed uint64, dir string, validate bool) error {
	opts := core.Options{Horizon: horizon, Seed: seed}
	ds, err := trace.NewDirSink(dir, core.TraceMeta(profile, opts))
	if err != nil {
		return err
	}
	opts.Sinks = []trace.Sink{ds}
	var v *trace.Validator
	if validate {
		v = trace.NewValidator(trace.DefaultValidateOptions())
		opts.Sinks = append(opts.Sinks, v)
	}
	res := core.Run(profile, opts)
	if err := ds.Close(); err != nil {
		return err
	}
	logger.Printf("simulated cell %s: %d rows (%+v)", profile.Name, res.Rows.Total(), res.Rows)
	logger.Printf("scheduler: %+v", res.Sched)
	if v != nil {
		if violations := v.Violations(); len(violations) > 0 {
			logger.Printf("WARNING: %d invariant violations (first: %v)", len(violations), violations[0])
		} else {
			logger.Printf("validator: all invariants hold")
		}
	}
	logger.Printf("wrote trace to %s", dir)
	return nil
}
