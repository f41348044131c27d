package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// env is what a workload's inputs derive from.
type env struct {
	seed        uint64
	tiny        bool
	parallelism int    // engine workers: one per CPU
	scratch     string // removed when the process ends
}

// workloadDef is one named input set. prepare builds, untimed and once per
// process, whatever every repetition reuses, and returns the plan.
type workloadDef struct {
	name    string
	prepare func(e *env) (*plan, error)
}

// plan is a prepared workload: body runs one repetition, a single
// closed-loop call into the program's public entry points.
type plan struct {
	cells       int // cells one repetition simulates
	parallelism int
	body        func(r *rep) error
}

// workloads, in BENCHMARK.json order; README.md says why each exists.
var workloads = []*workloadDef{
	{"suite-stream", suiteStream},
	{"fleet-128", fleet128},
	{"sweep-replay", sweepReplay},
	{"trace-roundtrip", traceRoundtrip},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// suiteScale is a nine-cell suite scale at the given size, warmup a
// third of the horizon; tiny shrinks it for the self-test.
func (e *env) suiteScale(name string, machines2011, machines2019 int, horizon sim.Time) experiments.Scale {
	if e.tiny {
		machines2011, machines2019, horizon = machines2011/4, machines2019/4, horizon/3
	}
	return experiments.Scale{
		Name: name, Machines2011: machines2011, Machines2019: machines2019,
		Horizon: horizon, Warmup: horizon / 3, Seed: e.seed, Parallelism: e.parallelism,
	}
}

func machineHours(cells []core.CellResult, horizon sim.Time) float64 {
	machines := 0
	for _, c := range cells {
		machines += c.Profile.Machines
	}
	return float64(machines) * horizon.Hours()
}

func (e *env) suiteStreamScale() experiments.Scale {
	return e.suiteScale("suite-stream", 240, 200, 6*sim.Hour)
}

// recordSeed is the generator seed of the suite workloads' job streams.
// Their cells have heavy-tailed job sizes, so a job stream generated
// from each run's seed would make the amount of work differ by tens of
// percent between seeds. The suite workloads therefore record their
// nine cells' job streams once, at this seed, and replay them; the run's
// seed drives everything else the simulation draws (placement choices,
// usage noise, failures). At seed recordSeed the replayed run is byte
// for byte the generated one.
const recordSeed = 1

// recordSuite generates sc's nine job streams at recordSeed, untimed.
func recordSuite(sc experiments.Scale) ([]core.CellResult, error) {
	sc.Seed = recordSeed
	sc.RecordWorkload = true
	s, err := experiments.RunSuiteStreaming(sc, experiments.StreamingOptions{})
	if err != nil {
		return nil, err
	}
	return s.Stats, nil
}

// replaying returns sc replaying the suite job streams recorded at
// recordSeed.
func replaying(sc experiments.Scale) (experiments.Scale, error) {
	cells, err := recordSuite(sc)
	if err != nil {
		return sc, err
	}
	for _, c := range cells {
		sc.Replay = append(sc.Replay, c.Workload)
	}
	return sc, nil
}

func suiteStream(e *env) (*plan, error) {
	sc, err := replaying(e.suiteStreamScale())
	if err != nil {
		return nil, err
	}
	return &plan{cells: len(sc.Replay), body: func(r *rep) error {
		sc := sc
		sc.RunKnobs = r.knobs
		s, err := experiments.RunSuiteStreaming(sc, experiments.StreamingOptions{})
		if err != nil {
			return err
		}
		r.simulated(machineHours(s.Stats, sc.Horizon))
		return r.timed("report", func() error { return s.WriteReport(r.out) })
	}}, nil
}

// fleetRoot is fleet-128's fleet root. fleet.Run takes one seed, the
// root, and it fixes every cell's sampled profile and job stream; cells
// of heavy-tailed size make fleets rooted at different seeds differ by
// tens of percent in work and allocation. The fleet is therefore pinned
// like the suites' job streams, and the run's seed has nothing left to
// vary in this workload.
const fleetRoot = 1

func fleet128(e *env) (*plan, error) {
	cfg := fleet.Config{Cells: 128, MedianMachines: 60, Horizon: 2 * sim.Hour,
		Seed: fleetRoot, Parallelism: e.parallelism}
	if e.tiny {
		cfg.Cells, cfg.MedianMachines, cfg.Horizon = cfg.Cells/4, cfg.MedianMachines/3, cfg.Horizon/3
	}
	return &plan{cells: cfg.Cells, body: func(r *rep) error {
		cfg := cfg
		cfg.RunKnobs = r.knobs
		cfg.UsageNoiseFast = true
		rep := fleet.Run(cfg)
		r.simulated(float64(rep.TotalMachines) * cfg.Horizon.Hours())
		return r.timed("report", func() error {
			if err := rep.WriteText(r.out); err != nil {
				return err
			}
			return rep.WriteCSV(r.out)
		})
	}}, nil
}

// sweepVariants are sweep-replay's grid columns: the baseline, a
// different placement policy, and a 1.2× overcommit.
const sweepVariants = "baseline;policy:best-fit;overcommit:1.2"

func sweepReplay(e *env) (*plan, error) {
	sc := e.suiteScale("sweep-replay", 60, 50, 3*sim.Hour)
	variants, err := sweep.ParseVariants(sweepVariants)
	if err != nil {
		return nil, err
	}
	const seeds = 2
	// The recordings are the sweep's input, saved once per process
	// outside every timed repetition; each repetition parses them.
	recorded, err := recordSuite(sc)
	if err != nil {
		return nil, err
	}
	recDir := filepath.Join(e.scratch, "recordings")
	if err := experiments.SaveWorkloads(recDir, recorded); err != nil {
		return nil, err
	}
	cells := seeds * len(variants) * len(recorded)
	mh := seeds * float64(len(variants)) * machineHours(recorded, sc.Horizon)
	return &plan{cells: cells, body: func(r *rep) error {
		var recs []*workload.Recording
		if err := r.timed("load_recordings", func() (err error) {
			recs, err = experiments.LoadWorkloads(recDir, sc)
			return err
		}); err != nil {
			return err
		}
		d := sweep.Def{Scale: sc, Seeds: seeds, Variants: variants, Parallelism: e.parallelism}
		d.Scale.RunKnobs = r.knobs
		d.Scale.Replay = recs
		res, err := sweep.Run(d)
		if err != nil {
			return err
		}
		r.simulated(mh)
		csvDir, err := r.tempDir()
		if err != nil {
			return err
		}
		if err := r.timed("report", func() error {
			if err := res.WriteReport(r.out); err != nil {
				return err
			}
			return res.WriteCSVs(csvDir)
		}); err != nil {
			return err
		}
		r.afterTiming(func() error { return hashDir(r.out, csvDir) })
		return nil
	}}, nil
}

// hashDir writes every file of dir, in name order, into w.
func hashDir(w io.Writer, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		// Writes into a hash cannot fail.
		fmt.Fprintf(w, "%s %d\n", ent.Name(), len(b))
		_, _ = w.Write(b)
	}
	return nil
}

func traceRoundtrip(e *env) (*plan, error) {
	sc, err := replaying(e.suiteScale("trace-roundtrip", 120, 100, 4*sim.Hour))
	if err != nil {
		return nil, err
	}
	checkDirect := true
	return &plan{cells: len(sc.Replay), body: func(r *rep) error {
		sc := sc
		sc.RunKnobs = r.knobs
		s := experiments.RunSuite(sc)
		r.simulated(machineHours(s.Stats, sc.Horizon))
		traces := append([]*trace.MemTrace{s.T2011}, s.T2019...)
		root, err := r.tempDir()
		if err != nil {
			return err
		}
		dirs := make([]string, len(traces))
		for i, t := range traces {
			dirs[i] = filepath.Join(root, experiments.ShardDirName(i, t.Meta.Cell))
		}
		if err := r.timed("write_dir", func() error {
			for i, t := range traces {
				if err := trace.WriteDir(t, dirs[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		back := make([]*trace.MemTrace, len(traces))
		if err := r.timed("read_dir", func() (err error) {
			for i, d := range dirs {
				if back[i], err = trace.ReadDir(d); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := r.timed("validate", func() error {
			for _, t := range back {
				if v := trace.Validate(t, trace.DefaultValidateOptions()); len(v) > 0 {
					return fmt.Errorf("cell %s: %d invariant violations, first: %v", t.Meta.Cell, len(v), v[0])
				}
			}
			return nil
		}); err != nil {
			return err
		}
		reread := &experiments.Suite{Scale: sc, T2011: back[0], T2019: back[1:], Stats: s.Stats}
		if err := r.timed("report", func() error { return reread.WriteReport(r.out) }); err != nil {
			return err
		}
		if checkDirect {
			// The report from the re-read traces must equal the one from
			// the traces as simulated; later repetitions must then equal
			// this one's digest.
			checkDirect = false
			r.afterTiming(func() error {
				h := sha256.New()
				if err := s.WriteReport(h); err != nil {
					return err
				}
				r.expect = hex.EncodeToString(h.Sum(nil))
				return nil
			})
		}
		return nil
	}}, nil
}
