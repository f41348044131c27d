package cliflags

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Obs is one CLI run's observability bundle: the run-level metrics
// registry (always created — the consolidated run summary records into
// it), the wall-clock timeline (created when anything will render it),
// and the optional live HTTP server. Obtain one from
// Common.StartObservability, thread Reg/Timeline into the run via
// Knobs, wrap the run in MeasureRun, and defer Close.
type Obs struct {
	// Reg is the run-level registry every cell's instruments roll up
	// into (see engine.Plan).
	Reg *metrics.Registry
	// Timeline collects wall-clock spans; nil unless -http or -timeline
	// asked for one.
	Timeline *metrics.Timeline

	srv         *metrics.Server
	metricsOut  string
	timelineOut string
	logf        func(format string, args ...any)
}

// StartObservability builds the run's observability bundle from the
// parsed flags: it always creates the run registry, creates a timeline
// iff -http or -timeline will render it, and starts the live HTTP
// server when -http is set (logging the listen address through logf).
func (c *Common) StartObservability(logf func(format string, args ...any)) (*Obs, error) {
	o := &Obs{
		Reg:         metrics.NewRegistry(),
		metricsOut:  *c.MetricsOut,
		timelineOut: *c.TimelineOut,
		logf:        logf,
	}
	if *c.HTTP != "" || o.timelineOut != "" {
		o.Timeline = metrics.NewTimeline()
	}
	if *c.HTTP != "" {
		srv, err := metrics.StartServer(*c.HTTP, o.Reg, o.Timeline)
		if err != nil {
			return nil, fmt.Errorf("-http: %w", err)
		}
		o.srv = srv
		logf("live observability on http://%s/", srv.Addr())
	}
	return o, nil
}

// Knobs returns k with the run registry and timeline attached, so CLIs
// write `cfg.RunKnobs = obs.Knobs(common.Knobs())`.
func (o *Obs) Knobs(k core.RunKnobs) core.RunKnobs {
	k.Metrics = o.Reg
	k.Timeline = o.Timeline
	return k
}

// MeasureRun times fn under the shared peak-HeapAlloc sampler and
// records the outcome into the run registry — the single implementation
// behind every CLI's "... in 1.6s (peak heap 6 MB)" line.
func (o *Obs) MeasureRun(fn func()) metrics.RunStats {
	return metrics.MeasureRun(o.Reg, fn)
}

// Close bounds the observability lifecycle to the run: it gracefully
// shuts the live server down (draining in-flight scrapes) and writes
// the -metrics and -timeline files from final state. Export errors are
// returned after the server is down; callers typically log.Fatal them.
func (o *Obs) Close() error {
	var firstErr error
	if o.srv != nil {
		if err := o.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.metricsOut != "" {
		if err := writeFile(o.metricsOut, func(f *os.File) error {
			return o.Reg.Snapshot().WriteSnapshotFile(f, o.metricsOut)
		}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			o.logf("wrote metrics snapshot to %s", o.metricsOut)
		}
	}
	if o.timelineOut != "" {
		if err := writeFile(o.timelineOut, func(f *os.File) error {
			return o.Timeline.WriteChromeTrace(f)
		}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			o.logf("wrote run timeline to %s", o.timelineOut)
		}
	}
	return firstErr
}

// writeFile creates path, runs write, and closes it, reporting the
// first error.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
