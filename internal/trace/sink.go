package trace

// This file is the streaming half of the trace package: composable Sink
// implementations that let a simulation emit rows into a pipeline —
// fan-out, flushing, online reduction — instead of (or in addition to)
// retaining a full MemTrace. Every sink belongs to one cell and is driven
// by that cell's goroutine; full in-memory retention is one sink among
// several, not a structural assumption.

// Flusher is implemented by sinks that buffer rows and can be asked to
// drain them downstream. Flush must be idempotent.
type Flusher interface {
	Flush()
}

// Flush drains s if it buffers, and recurses into fan-out sinks so an
// entire pipeline can be drained with one call at end of simulation.
func Flush(s Sink) {
	switch v := s.(type) {
	case MultiSink:
		for _, child := range v {
			Flush(child)
		}
	case Flusher:
		v.Flush()
	}
}

// FanOut composes sinks into one: nil entries are dropped and nested
// MultiSinks flattened. Zero live sinks yield a NopSink, one is returned
// unwrapped, more become a MultiSink.
func FanOut(sinks ...Sink) Sink {
	var flat MultiSink
	var add func(s Sink)
	add = func(s Sink) {
		switch v := s.(type) {
		case nil:
			return
		case MultiSink:
			for _, child := range v {
				add(child)
			}
		default:
			flat = append(flat, s)
		}
	}
	for _, s := range sinks {
		add(s)
	}
	switch len(flat) {
	case 0:
		return NopSink{}
	case 1:
		return flat[0]
	default:
		return flat
	}
}

// RowCounts tallies rows per trace table.
type RowCounts struct {
	Collections int64
	Instances   int64
	Usage       int64
	Machines    int64
}

// Total sums all tables.
func (c RowCounts) Total() int64 {
	return c.Collections + c.Instances + c.Usage + c.Machines
}

// Add returns the element-wise sum of two counts.
func (c RowCounts) Add(o RowCounts) RowCounts {
	return RowCounts{
		Collections: c.Collections + o.Collections,
		Instances:   c.Instances + o.Instances,
		Usage:       c.Usage + o.Usage,
		Machines:    c.Machines + o.Machines,
	}
}

// CountingSink is the simplest online reducer: it tallies rows per table
// as they stream past, so a run with MemTrace retention disabled still
// reports how much trace it generated.
type CountingSink struct {
	counts RowCounts
}

// CollectionEvent counts the row.
func (c *CountingSink) CollectionEvent(CollectionEvent) { c.counts.Collections++ }

// InstanceEvent counts the row.
func (c *CountingSink) InstanceEvent(InstanceEvent) { c.counts.Instances++ }

// Usage counts the block's rows.
func (c *CountingSink) Usage(recs []UsageRecord) { c.counts.Usage += int64(len(recs)) }

// MachineEvent counts the row.
func (c *CountingSink) MachineEvent(MachineEvent) { c.counts.Machines++ }

// Counts returns the tallies so far.
func (c *CountingSink) Counts() RowCounts { return c.counts }
