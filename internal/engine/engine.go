// Package engine orchestrates multi-cell simulation runs: it executes N
// independent cell simulations (core.Run) concurrently on a bounded worker
// pool and delivers their results in spec order. The paper analyzes eight
// 2019 cells plus the 2011 cell; the engine is the layer that makes that
// suite — and larger parameter sweeps and fleets — scale with the
// hardware instead of running one cell at a time.
//
// # One run function
//
// Run(Plan) is the engine's only run function. A Plan names the cell count, builds
// each cell's Spec lazily on the worker about to simulate it, and
// receives results through OnResult, serialized and in spec order; the
// engine retains no result itself, so a caller that streams results
// holds O(Parallelism) cells of state. The engine also owns everything
// observe-only about a run: per-cell metrics registries merged in spec
// order, the timeline, the run_cells_* counters and the progress lines.
//
// # Cell failures
//
// A panic while building or simulating cell i is recovered on the
// worker and becomes a *CellError naming the index, profile and seed.
// Run then dispatches no further cell, lets the cells in flight finish,
// delivers OnResult for exactly the cells before the lowest failing
// index, and returns that index's error. Cells are dispatched in index
// order, so every cell below a failing one has started and the returned
// error is the same at any Parallelism.
//
// # Determinism contract
//
// A cell simulation is a pure function of (profile, horizon, seed): each
// cell owns its private kernel and rng streams, so parallelism changes
// only wall-clock time, never a single trace row. The engine makes the
// two conventions that guarantee cross-cell independence explicit instead
// of caller folklore:
//
//   - Seeds: cell i of a run rooted at seed R simulates with
//     DeriveSeed(R, i), a splitmix64-finalized mix. Same root ⇒ same
//     per-cell seeds ⇒ byte-identical traces at any Parallelism.
//   - ID spaces: cell i offsets its collection IDs by IDBase(i), giving
//     every cell a disjoint 2³² ID range so merged traces never collide.
//
// Sinks are per cell: each spec's Options.Sinks are driven by the one
// goroutine simulating that cell, so no sink may be shared across specs.
package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec is one cell simulation in a multi-cell run. Cells are identified
// by spec index in results and by Profile.Name in traces.
type Spec struct {
	Profile *workload.CellProfile
	Options core.Options
}

// DeriveSeed maps a run's root seed and a cell index to the cell's
// simulation seed. It is the engine's published seed-splitting contract:
// stable across releases, collision-resistant across indices, and
// independent of execution order.
func DeriveSeed(root uint64, cell int) uint64 {
	x := root + 0x9e3779b97f4a7c15*uint64(cell+1)
	// splitmix64 finalizer, as in internal/rng.
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// IDBase returns cell i's collection-ID offset: disjoint 2³² ranges so a
// merged multi-cell trace has globally unique collection IDs.
func IDBase(cell int) trace.CollectionID {
	return trace.CollectionID(cell) << 32
}

// DeriveGridSeed maps a sweep's root seed and a 2-D grid coordinate
// (run, cell) to that point's simulation seed: replicate run's root
// derives from the sweep root, and cell seeds derive from the replicate
// root exactly as single-run suites derive theirs. The result depends
// only on (root, run, cell) — never on how many variants or runs the
// sweep contains — so every variant of replicate run simulates each cell
// against the same stochastic world (common random numbers), which is
// what makes cross-variant differences at a fixed seed meaningful.
func DeriveGridSeed(root uint64, run, cell int) uint64 {
	return DeriveSeed(DeriveSeed(root, run), cell)
}

// NewGridSpec builds the spec for one point of a seed × variant × cell
// sweep grid: the simulation seed comes from DeriveGridSeed(root, run,
// cell) while the collection-ID space comes from the point's flat grid
// index, keeping every grid point's IDs disjoint even though variants
// share seeds.
func NewGridSpec(run, cell, flat int, p *workload.CellProfile, base core.Options, root uint64) Spec {
	base.Seed = DeriveGridSeed(root, run, cell)
	base.IDBase = IDBase(flat)
	return Spec{Profile: p, Options: base}
}

// NewSpec builds the spec for cell index i of a run rooted at seed root,
// applying the engine's seed and ID-space contracts to base options.
func NewSpec(i int, p *workload.CellProfile, base core.Options, root uint64) Spec {
	base.Seed = DeriveSeed(root, i)
	base.IDBase = IDBase(i)
	return Spec{Profile: p, Options: base}
}

// Plan is one multi-cell run: Cells simulations, each built by Spec and
// delivered to OnResult in spec order.
type Plan struct {
	// Label prefixes the progress lines ("suite", "sweep", "fleet").
	Label string
	// Cells is the number of cells; indices run over [0, Cells).
	Cells int
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS. It has
	// no effect on simulation output, only on wall-clock time.
	Parallelism int

	// Progress, when non-nil, receives progress lines of the form
	// "<label>: d/n done, k in flight, <t> elapsed, ETA <t>": the first
	// when the first cell starts, then at most one a second, and always
	// the last. Workers write start lines, so the writer must be safe
	// for concurrent use.
	Progress io.Writer
	// Metrics, when non-nil, receives the run's instrument rollup. Each
	// cell simulates against a private registry, merged here in spec
	// order, so the rollup is byte-identical at any Parallelism. It also
	// carries the live run_cells_total gauge and the
	// run_cells_started_total and run_cells_done_total counters.
	Metrics *metrics.Registry
	// Timeline, when non-nil, collects each cell's spans under TID = the
	// cell index: the cell's own spans from core.Run, a "cell" span from
	// its start to its delivery and a "reduce" span around OnResult.
	Timeline *metrics.Timeline

	// Spec builds cell i. The worker about to simulate cell i calls it
	// exactly once, concurrently with calls for other indices. The engine
	// replaces the spec's Progress, Metrics, Timeline and TimelineID with
	// the per-cell instruments above.
	Spec func(i int) Spec
	// OnResult, when set, receives every cell's result in spec order
	// (0, 1, 2, ...) on the goroutine that called Run, as results become
	// available. A caller that needs results keeps them here.
	OnResult func(i int, res *core.CellResult)
}

// CellError reports a cell whose Spec or simulation panicked.
type CellError struct {
	Index   int
	Profile string // the cell's profile name; empty if Spec panicked
	Seed    uint64
	Value   any // the recovered panic value
}

func (e *CellError) Error() string {
	return fmt.Sprintf("engine: cell %d (profile %q, seed %d) panicked: %v",
		e.Index, e.Profile, e.Seed, e.Value)
}

// outcome is one finished cell, handed from its worker to the
// delivering goroutine, or a worker's exit marker (i < 0).
type outcome struct {
	i     int
	start time.Time
	res   *core.CellResult
	reg   *metrics.Registry // the cell's private registry; nil without Metrics
	err   *CellError
}

// run is the state of one Run call.
type run struct {
	Plan
	started, done *metrics.Counter // nil without Metrics
	next          atomic.Int64     // the next index to dispatch
	stop          atomic.Bool      // no further dispatch: a cell failed or OnResult panicked
	// out carries finished cells, then one exit marker per worker, to
	// the delivering goroutine. One slot per worker: a worker blocks
	// only once every worker has sent something not yet taken.
	out chan outcome

	mu              sync.Mutex // guards the progress state below
	nStarted, nDone int
	begin, printed  time.Time
}

// Run simulates every cell of p and returns nil, or the *CellError of
// the lowest failing index (see the package doc for the failure rules).
func Run(p Plan) error {
	if p.Cells <= 0 {
		return nil
	}
	par := p.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, p.Cells)
	r := &run{Plan: p, begin: time.Now()}
	if p.Metrics != nil {
		p.Metrics.Gauge("run_cells_total").Add(float64(p.Cells))
		r.started = p.Metrics.Counter("run_cells_started_total")
		r.done = p.Metrics.Counter("run_cells_done_total")
	}

	var failed *CellError
	waiting := make([]*outcome, p.Cells) // finished, not yet delivered
	delivered := 0
	r.out = make(chan outcome, par)
	for w := 0; w < par; w++ {
		go r.work()
	}
	live := par
	// On every exit, a panicking OnResult included, stop dispatching and
	// wait for every worker's exit marker, so no worker outlives Run.
	defer func() {
		r.stop.Store(true)
		for live > 0 {
			if o := <-r.out; o.i < 0 {
				live--
			}
		}
	}()
	for live > 0 {
		switch o := <-r.out; {
		case o.i < 0:
			live--
		case o.err != nil:
			if failed == nil || o.err.Index < failed.Index {
				failed = o.err
			}
		default:
			// A failed cell's slot stays empty, so delivery stops below
			// the lowest failing index.
			waiting[o.i] = &o
			for delivered < p.Cells && waiting[delivered] != nil {
				r.deliver(waiting[delivered])
				waiting[delivered] = nil
				delivered++
			}
		}
	}
	if failed != nil {
		return failed
	}
	return nil
}

// work simulates cells in index order until none is left or dispatch
// stops, then sends its exit marker.
func (r *run) work() {
	for !r.stop.Load() {
		i := int(r.next.Add(1) - 1)
		if i >= r.Cells {
			break
		}
		o := r.simulate(i)
		if o.err != nil {
			r.stop.Store(true)
		}
		r.out <- o
	}
	r.out <- outcome{i: -1}
}

// simulate builds and simulates cell i with its instruments applied,
// turning a panic into the outcome's CellError.
func (r *run) simulate(i int) (o outcome) {
	o.i, o.start = i, time.Now()
	if r.started != nil {
		r.started.Inc()
	}
	r.progress(1, 0)
	var spec Spec
	defer func() {
		if v := recover(); v != nil {
			o.res, o.reg = nil, nil
			o.err = &CellError{Index: i, Seed: spec.Options.Seed, Value: v}
			if spec.Profile != nil {
				o.err.Profile = spec.Profile.Name
			}
		}
	}()
	spec = r.Spec(i)
	opts := spec.Options
	opts.Progress, opts.Metrics = nil, nil
	if r.Metrics != nil {
		o.reg = metrics.NewRegistry()
		opts.Metrics = o.reg
	}
	opts.Timeline, opts.TimelineID = r.Timeline, i
	o.res = core.Run(spec.Profile, opts)
	return o
}

// deliver records cell o's span, merges its registry into the run's,
// and hands its result to OnResult. Calls are serialized and in spec
// order.
func (r *run) deliver(o *outcome) {
	r.Timeline.Record("cell", "cell", o.i, o.start, time.Since(o.start))
	if r.Metrics != nil {
		r.Metrics.Merge(o.reg)
		r.done.Inc()
	}
	if r.OnResult != nil {
		end := r.Timeline.Span("reduce", "reduce", o.i)
		r.OnResult(o.i, o.res)
		end()
	}
	r.progress(0, 1)
}

// progress counts started and done cells and prints a progress line,
// at most one a second unless it reports the last cell done.
func (r *run) progress(started, done int) {
	if r.Progress == nil {
		return
	}
	r.mu.Lock()
	r.nStarted += started
	r.nDone += done
	now := time.Now()
	if r.nDone < r.Cells && now.Sub(r.printed) < time.Second {
		r.mu.Unlock()
		return
	}
	r.printed = now
	elapsed := now.Sub(r.begin)
	line := fmt.Sprintf("%s: %d/%d done, %d in flight, %s elapsed",
		r.Label, r.nDone, r.Cells, r.nStarted-r.nDone, elapsed.Round(100*time.Millisecond))
	if r.nDone > 0 && r.nDone < r.Cells {
		eta := time.Duration(float64(elapsed) / float64(r.nDone) * float64(r.Cells-r.nDone))
		line += ", ETA " + eta.Round(100*time.Millisecond).String()
	}
	r.mu.Unlock()
	fmt.Fprintln(r.Progress, line)
}
