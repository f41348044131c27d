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
// By default the trace is retained in memory and written at the end
// (which also enables the §9 invariant validator). With -stream the rows
// are written to disk while the simulation runs, through a buffered
// trace.DirSink, and nothing is retained: memory stays bounded no matter
// how long the horizon, which is the mode for generating month-scale
// traces. The two modes produce byte-identical CSV for the same seed;
// -validate is unavailable under -stream because the validator needs the
// retained trace.
//
// Usage:
//
//	borgtrace -era 2019 -cell b -machines 300 -hours 24 -seed 7 -out ./trace-b
//	borgtrace -era 2019 -cell b -machines 300 -hours 720 -seed 7 -stream -out ./trace-b
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
	stream := flag.Bool("stream", false, "write CSV while simulating (NoMemTrace: bounded memory at any horizon; disables -validate)")
	validate := flag.Bool("validate", true, "run the §9 invariant validator before writing (retained mode only)")
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
	horizon := sim.FromHours(*hours)

	if *stream {
		meta := trace.Meta{
			Era: profile.Era, Cell: profile.Name, Duration: horizon,
			Machines: profile.Machines, Seed: *seed,
		}
		ds, err := trace.NewDirSink(*out, meta)
		if err != nil {
			log.Fatal(err)
		}
		res := core.Run(profile, core.Options{
			Horizon:    horizon,
			Seed:       *seed,
			NoMemTrace: true,
			ExtraSinks: []trace.Sink{ds},
		})
		if err := ds.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("simulated cell %s: %d rows streamed", profile.Name, res.Rows.Total())
		log.Printf("scheduler: %+v", res.Sched)
		if *validate {
			log.Printf("note: -validate is skipped under -stream (no retained trace)")
		}
		log.Printf("wrote trace to %s (streaming)", *out)
		return
	}

	res := core.Run(profile, core.Options{
		Horizon: horizon,
		Seed:    *seed,
	})
	log.Printf("simulated cell %s: %s", profile.Name, res.Trace.Counts())
	log.Printf("scheduler: %+v", res.Sched)

	if *validate {
		violations := trace.Validate(res.Trace, trace.DefaultValidateOptions())
		if len(violations) > 0 {
			log.Printf("WARNING: %d invariant violations (first: %v)", len(violations), violations[0])
		} else {
			log.Printf("validator: all invariants hold")
		}
	}

	if err := trace.WriteDir(res.Trace, *out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote trace to %s", *out)
}
