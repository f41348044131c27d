package trace

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Violation is one failed invariant, with enough context to debug it.
// The paper's trace-generation pipeline checks "a raft of logical
// invariants" (§9); this validator reproduces that practice for the
// synthetic traces.
type Violation struct {
	Invariant string
	Detail    string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// ValidateOptions tunes validation strictness.
type ValidateOptions struct {
	// MaxViolations stops recording after this many findings
	// (0 = unlimited). Large traces with a systemic bug would otherwise
	// produce millions of identical rows.
	MaxViolations int

	// CPUOvercommitTolerance is how much the sum of *usage* on a machine
	// may exceed CPU capacity before it is flagged. CPU is work
	// conserving (§2), so transient usage above capacity is legal;
	// memory is a hard bound.
	CPUOvercommitTolerance float64
}

// DefaultValidateOptions mirrors the paper's model: memory hard-capped,
// CPU allowed 0% above capacity at the usage level (the machine cannot
// physically exceed its capacity; per-task usage may exceed per-task limit).
func DefaultValidateOptions() ValidateOptions {
	return ValidateOptions{MaxViolations: 100, CPUOvercommitTolerance: 1e-9}
}

// Validate checks the §9 invariants over a stored trace by replaying it
// into a Validator, and returns the violations found (bounded by
// opts.MaxViolations).
func Validate(t *MemTrace, opts ValidateOptions) []Violation {
	v := NewValidator(opts)
	t.Replay(v)
	return v.Violations()
}

// Validator is the §9 invariant checker as a Sink, so a run validates
// while it simulates, with or without a retained trace:
//
//  1. A SUBMIT precedes any termination event, per collection and instance.
//  2. At most one terminal state is "open" at a time: termination events
//     must be separated by a re-SUBMIT (instances may restart).
//  3. Event times are non-decreasing per collection/instance.
//  4. Every SCHEDULE names a machine that has been added (and not removed).
//  5. Instance events reference collections that have events.
//  6. Usage windows are well-formed (Start < End) and usage is
//     non-negative; average <= max.
//  7. Per-machine, per-window summed usage does not exceed capacity
//     (hard for memory, tolerance for CPU).
//  8. A child collection does not outlive its parent's termination by
//     more than a grace window (parent exit kills children, §5.2).
//
// Rows are checked as they arrive; invariants 5, 7 and 8 need the whole
// stream and are checked by Violations. The state is a few words per
// machine, collection and instance, plus one summed usage vector per
// occupied machine-window (about 40 B each), which grows with the
// horizon. A Validator belongs to one cell and is not safe for
// concurrent use.
type Validator struct {
	opts  ValidateOptions
	found []Violation // per-row findings, in stream order

	machines map[MachineID]machineState
	colls    map[CollectionID]collState
	insts    map[InstanceKey]instState
	usage    int // usage rows seen, the index in usage-row details
	windows  map[windowKey]Resources
}

type machineState struct {
	live        bool     // an ADD has been seen
	add, remove sim.Time // lifetime of the last ADD; remove < 0 while present
	hasCapacity bool
	capacity    Resources // from the last ADD or UPDATE
}

type collState struct {
	last       sim.Time
	submit     sim.Time // time of the first event
	parent     CollectionID
	submitted  bool // a SUBMIT has been seen
	open       bool // terminated since the last SUBMIT
	terminated bool
	term       sim.Time // time of the last termination
}

type instState struct {
	last       sim.Time
	submitted  bool
	terminated bool
}

type windowKey struct {
	machine MachineID
	start   sim.Time
}

// parentKillGrace is how long a child may outlive its parent's
// termination (or its own submission, if later).
const parentKillGrace = 5 * sim.Minute

// NewValidator returns a Validator with no rows seen.
func NewValidator(opts ValidateOptions) *Validator {
	return &Validator{
		opts:     opts,
		machines: make(map[MachineID]machineState),
		colls:    make(map[CollectionID]collState),
		insts:    make(map[InstanceKey]instState),
		windows:  make(map[windowKey]Resources),
	}
}

// add records a violation unless MaxViolations are already recorded.
func (v *Validator) add(out *[]Violation, invariant, format string, args ...any) {
	if v.opts.MaxViolations > 0 && len(*out) >= v.opts.MaxViolations {
		return
	}
	*out = append(*out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// MachineEvent tracks the machine's lifetime and capacity.
func (v *Validator) MachineEvent(ev MachineEvent) {
	m := v.machines[ev.Machine]
	switch ev.Type {
	case MachineAdd:
		m.live, m.add, m.remove = true, ev.Time, -1
	case MachineRemove:
		if m.live {
			m.remove = ev.Time
		}
	}
	if ev.Type == MachineAdd || ev.Type == MachineUpdate {
		m.hasCapacity, m.capacity = true, ev.Capacity
	}
	v.machines[ev.Machine] = m
}

// CollectionEvent checks time order, submit-before-termination and
// double termination for the collection.
func (v *Validator) CollectionEvent(ev CollectionEvent) {
	id := ev.Collection
	c, seen := v.colls[id]
	if !seen {
		c = collState{last: -1, submit: ev.Time, parent: ev.Parent}
	}
	if ev.Time < c.last {
		v.add(&v.found, "coll-time-order", "collection %d: %s at %v after %v", id, ev.Type, ev.Time, c.last)
	}
	c.last = ev.Time
	switch {
	case ev.Type == EventSubmit:
		c.submitted, c.open = true, false
	case ev.Type.IsTermination():
		if !c.submitted {
			v.add(&v.found, "submit-before-termination", "collection %d: %s at %v before any SUBMIT", id, ev.Type, ev.Time)
		}
		if c.open {
			v.add(&v.found, "double-termination", "collection %d: %s at %v after prior termination", id, ev.Type, ev.Time)
		}
		c.open, c.terminated, c.term = true, true, ev.Time
	}
	v.colls[id] = c
}

// InstanceEvent checks time order, schedule-before-submit, the
// scheduled machine's lifetime and double termination for the instance.
func (v *Validator) InstanceEvent(ev InstanceEvent) {
	key := ev.Key
	s, seen := v.insts[key]
	if !seen {
		s.last = -1
	}
	if ev.Time < s.last {
		v.add(&v.found, "inst-time-order", "instance %s: %s at %v after %v", key, ev.Type, ev.Time, s.last)
	}
	s.last = ev.Time
	switch {
	case ev.Type == EventSubmit:
		s.submitted, s.terminated = true, false
	case ev.Type == EventSchedule:
		if !s.submitted {
			v.add(&v.found, "schedule-before-submit", "instance %s scheduled at %v before SUBMIT", key, ev.Time)
		}
		if ev.Machine == 0 {
			v.add(&v.found, "schedule-machine", "instance %s scheduled at %v with no machine", key, ev.Time)
		} else if m := v.machines[ev.Machine]; !m.live {
			v.add(&v.found, "schedule-machine", "instance %s scheduled on unknown machine %d", key, ev.Machine)
		} else if ev.Time < m.add || (m.remove >= 0 && ev.Time > m.remove) {
			v.add(&v.found, "schedule-machine", "instance %s scheduled on machine %d outside its lifetime", key, ev.Machine)
		}
	case ev.Type.IsTermination():
		if s.terminated {
			v.add(&v.found, "double-termination", "instance %s: %s at %v after prior termination", key, ev.Type, ev.Time)
		}
		s.terminated = true
	}
	v.insts[key] = s
}

// Usage checks each record's window and values and adds its average
// usage to the machine-window sums.
func (v *Validator) Usage(recs []UsageRecord) {
	for _, rec := range recs {
		i := v.usage
		v.usage++
		if rec.End <= rec.Start {
			v.add(&v.found, "usage-window", "usage[%d] %s window [%v,%v) is empty or inverted", i, rec.Key, rec.Start, rec.End)
		}
		if !rec.AvgUsage.NonNegative() || !rec.MaxUsage.NonNegative() {
			v.add(&v.found, "usage-negative", "usage[%d] %s has negative usage", i, rec.Key)
		}
		if rec.AvgUsage.CPU > rec.MaxUsage.CPU+1e-9 || rec.AvgUsage.Mem > rec.MaxUsage.Mem+1e-9 {
			v.add(&v.found, "usage-avg-max", "usage[%d] %s average exceeds max", i, rec.Key)
		}
		if rec.Machine == 0 || rec.End <= rec.Start {
			continue
		}
		// Time-weighted accounting: a record contributes its average
		// usage scaled by its overlap with each 5-minute window, so
		// partial-window records from short tasks are weighed by how
		// long they actually occupied the machine.
		for w := rec.Start / sim.SampleWindow; w <= (rec.End-1)/sim.SampleWindow; w++ {
			wStart := w * sim.SampleWindow
			lo, hi := max(rec.Start, wStart), min(rec.End, wStart+sim.SampleWindow)
			k := windowKey{machine: rec.Machine, start: wStart}
			v.windows[k] = v.windows[k].Add(rec.AvgUsage.Scale(float64(hi-lo) / float64(sim.SampleWindow)))
		}
	}
}

// Violations returns the per-row findings in stream order, then the
// checks that need the whole stream: children outliving their parents
// by collection ID, instances of collections with no events by instance
// key, and machine-window capacity by machine and window. At most
// MaxViolations are returned. It does not change the Validator, so more
// rows may follow.
func (v *Validator) Violations() []Violation {
	out := slices.Clone(v.found)
	if v.opts.MaxViolations > 0 && len(out) >= v.opts.MaxViolations {
		return out
	}

	ids := make([]CollectionID, 0, len(v.colls))
	for id, c := range v.colls {
		if c.parent != 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		c := v.colls[id]
		p := v.colls[c.parent]
		if !p.terminated {
			continue // parent still running at trace end
		}
		if !c.terminated {
			v.add(&out, "parent-kill", "collection %d still open after parent %d terminated at %v", id, c.parent, p.term)
			continue
		}
		// A child submitted after its parent's exit is killed on arrival,
		// so the grace window runs from whichever came last.
		if c.term > max(p.term, c.submit)+parentKillGrace {
			v.add(&out, "parent-kill", "collection %d terminated at %v, > grace after parent %d at %v", id, c.term, c.parent, p.term)
		}
	}

	var orphans []InstanceKey
	for key := range v.insts {
		if _, ok := v.colls[key.Collection]; !ok {
			orphans = append(orphans, key)
		}
	}
	slices.SortFunc(orphans, func(a, b InstanceKey) int {
		return cmp.Or(cmp.Compare(a.Collection, b.Collection), cmp.Compare(a.Index, b.Index))
	})
	for _, key := range orphans {
		v.add(&out, "orphan-instance", "instance %s references collection with no events", key)
	}

	keys := make([]windowKey, 0, len(v.windows))
	for k := range v.windows {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b windowKey) int {
		return cmp.Or(cmp.Compare(a.machine, b.machine), cmp.Compare(a.start, b.start))
	})
	for _, k := range keys {
		sum := v.windows[k]
		m := v.machines[k.machine]
		if !m.hasCapacity {
			v.add(&out, "usage-machine", "usage on machine %d with no capacity record", k.machine)
			continue
		}
		if sum.Mem > m.capacity.Mem+1e-9 {
			v.add(&out, "machine-mem-capacity", "machine %d window %v: summed mem usage %.4f > capacity %.4f",
				k.machine, k.start, sum.Mem, m.capacity.Mem)
		}
		if sum.CPU > m.capacity.CPU+v.opts.CPUOvercommitTolerance {
			v.add(&out, "machine-cpu-capacity", "machine %d window %v: summed cpu usage %.4f > capacity %.4f",
				k.machine, k.start, sum.CPU, m.capacity.CPU)
		}
	}
	return out
}
