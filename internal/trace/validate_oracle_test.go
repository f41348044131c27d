package trace

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// validateOracle is the validator as a post-hoc walker over a retained
// trace: each collection's and instance's events grouped in emission
// order, then the usage table. It is kept as the differential oracle for
// the streaming Validator: untruncated, both must report the same
// multiset of violations on any trace.
func validateOracle(t *MemTrace, opts ValidateOptions) []Violation {
	// Local grouping: each collection's and instance's events in
	// emission order, and the keys sorted.
	collEvents := make(map[CollectionID][]CollectionEvent)
	for _, ev := range t.CollectionEvents {
		collEvents[ev.Collection] = append(collEvents[ev.Collection], ev)
	}
	instEvents := make(map[InstanceKey][]InstanceEvent)
	for _, ev := range t.InstanceEvents {
		instEvents[ev.Key] = append(instEvents[ev.Key], ev)
	}
	collIDs := make([]CollectionID, 0, len(collEvents))
	for id := range collEvents {
		collIDs = append(collIDs, id)
	}
	sort.Slice(collIDs, func(i, j int) bool { return collIDs[i] < collIDs[j] })
	instKeys := make([]InstanceKey, 0, len(instEvents))
	for k := range instEvents {
		instKeys = append(instKeys, k)
	}
	sort.Slice(instKeys, func(i, j int) bool {
		if instKeys[i].Collection != instKeys[j].Collection {
			return instKeys[i].Collection < instKeys[j].Collection
		}
		return instKeys[i].Index < instKeys[j].Index
	})

	var out []Violation
	add := func(invariant, format string, args ...any) bool {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
		return opts.MaxViolations > 0 && len(out) >= opts.MaxViolations
	}

	// Machine liveness intervals.
	type interval struct{ add, remove sim.Time }
	machines := make(map[MachineID]*interval)
	for _, ev := range t.MachineEvents {
		switch ev.Type {
		case MachineAdd:
			machines[ev.Machine] = &interval{add: ev.Time, remove: -1}
		case MachineRemove:
			if iv, ok := machines[ev.Machine]; ok {
				iv.remove = ev.Time
			}
		}
	}
	capacity := make(map[MachineID]Resources)
	for _, ev := range t.MachineEvents {
		if ev.Type == MachineAdd || ev.Type == MachineUpdate {
			capacity[ev.Machine] = ev.Capacity
		}
	}

	// Collection-level checks.
	collTerm := make(map[CollectionID]sim.Time)
	for _, id := range collIDs {
		evs := collEvents[id]
		var last sim.Time = -1
		seenSubmit := false
		openTermination := false
		for _, ev := range evs {
			if ev.Time < last {
				if add("coll-time-order", "collection %d: %s at %v after %v", id, ev.Type, ev.Time, last) {
					return out
				}
			}
			last = ev.Time
			switch {
			case ev.Type == EventSubmit:
				seenSubmit = true
				openTermination = false
			case ev.Type.IsTermination():
				if !seenSubmit {
					if add("submit-before-termination", "collection %d: %s at %v before any SUBMIT", id, ev.Type, ev.Time) {
						return out
					}
				}
				if openTermination {
					if add("double-termination", "collection %d: %s at %v after prior termination", id, ev.Type, ev.Time) {
						return out
					}
				}
				openTermination = true
				collTerm[id] = ev.Time
			}
		}
	}

	// Parent/child causality: children must terminate within the grace
	// window after the parent's termination.
	const parentKillGrace = 5 * sim.Minute
	infos := t.CollectionInfos()
	infoByID := make(map[CollectionID]CollectionInfo, len(infos))
	for _, info := range infos {
		infoByID[info.ID] = info
	}
	for _, info := range infos {
		if info.Parent == 0 {
			continue
		}
		pterm, ok := collTerm[info.Parent]
		if !ok {
			continue // parent still running at trace end
		}
		cterm, terminated := collTerm[info.ID]
		if !terminated {
			if add("parent-kill", "collection %d still open after parent %d terminated at %v", info.ID, info.Parent, pterm) {
				return out
			}
			continue
		}
		// A child submitted after its parent's exit is killed on arrival,
		// so the grace window runs from whichever came last.
		deadline := pterm
		if info.SubmitTime > deadline {
			deadline = info.SubmitTime
		}
		if cterm > deadline+parentKillGrace {
			if add("parent-kill", "collection %d terminated at %v, > grace after parent %d at %v", info.ID, cterm, info.Parent, pterm) {
				return out
			}
		}
	}
	_ = infoByID

	// Instance-level checks.
	for _, key := range instKeys {
		evs := instEvents[key]
		var last sim.Time = -1
		seenSubmit := false
		running := false
		terminated := false
		for _, ev := range evs {
			if ev.Time < last {
				if add("inst-time-order", "instance %s: %s at %v after %v", key, ev.Type, ev.Time, last) {
					return out
				}
			}
			last = ev.Time
			switch {
			case ev.Type == EventSubmit:
				seenSubmit = true
				terminated = false
			case ev.Type == EventSchedule:
				if !seenSubmit {
					if add("schedule-before-submit", "instance %s scheduled at %v before SUBMIT", key, ev.Time) {
						return out
					}
				}
				if ev.Machine == 0 {
					if add("schedule-machine", "instance %s scheduled at %v with no machine", key, ev.Time) {
						return out
					}
				} else if iv, ok := machines[ev.Machine]; !ok {
					if add("schedule-machine", "instance %s scheduled on unknown machine %d", key, ev.Machine) {
						return out
					}
				} else if ev.Time < iv.add || (iv.remove >= 0 && ev.Time > iv.remove) {
					if add("schedule-machine", "instance %s scheduled on machine %d outside its lifetime", key, ev.Machine) {
						return out
					}
				}
				running = true
			case ev.Type.IsTermination():
				if terminated {
					if add("double-termination", "instance %s: %s at %v after prior termination", key, ev.Type, ev.Time) {
						return out
					}
				}
				terminated = true
				running = false
			}
		}
		_ = running
		if _, ok := collEvents[key.Collection]; !ok {
			if add("orphan-instance", "instance %s references collection with no events", key) {
				return out
			}
		}
	}

	// Usage-record checks, plus per-machine-window capacity accounting.
	type windowKey struct {
		machine MachineID
		start   sim.Time
	}
	usageSum := make(map[windowKey]Resources)
	for i, rec := range t.UsageRecords {
		if rec.End <= rec.Start {
			if add("usage-window", "usage[%d] %s window [%v,%v) is empty or inverted", i, rec.Key, rec.Start, rec.End) {
				return out
			}
		}
		if !rec.AvgUsage.NonNegative() || !rec.MaxUsage.NonNegative() {
			if add("usage-negative", "usage[%d] %s has negative usage", i, rec.Key) {
				return out
			}
		}
		if rec.AvgUsage.CPU > rec.MaxUsage.CPU+1e-9 || rec.AvgUsage.Mem > rec.MaxUsage.Mem+1e-9 {
			if add("usage-avg-max", "usage[%d] %s average exceeds max", i, rec.Key) {
				return out
			}
		}
		if rec.Machine != 0 && rec.End > rec.Start {
			// Time-weighted accounting: a record contributes its average
			// usage scaled by its overlap with each 5-minute window, so
			// partial-window records from short tasks are weighed by
			// how long they actually occupied the machine.
			firstW := rec.Start / sim.SampleWindow
			lastW := (rec.End - 1) / sim.SampleWindow
			for w := firstW; w <= lastW; w++ {
				wStart := w * sim.SampleWindow
				wEnd := wStart + sim.SampleWindow
				lo, hi := rec.Start, rec.End
				if wStart > lo {
					lo = wStart
				}
				if wEnd < hi {
					hi = wEnd
				}
				frac := float64(hi-lo) / float64(sim.SampleWindow)
				k := windowKey{machine: rec.Machine, start: wStart}
				usageSum[k] = usageSum[k].Add(rec.AvgUsage.Scale(frac))
			}
		}
	}
	keys := make([]windowKey, 0, len(usageSum))
	for k := range usageSum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].machine != keys[j].machine {
			return keys[i].machine < keys[j].machine
		}
		return keys[i].start < keys[j].start
	})
	for _, k := range keys {
		sum := usageSum[k]
		cap, ok := capacity[k.machine]
		if !ok {
			if add("usage-machine", "usage on machine %d with no capacity record", k.machine) {
				return out
			}
			continue
		}
		if sum.Mem > cap.Mem+1e-9 {
			if add("machine-mem-capacity", "machine %d window %v: summed mem usage %.4f > capacity %.4f",
				k.machine, k.start, sum.Mem, cap.Mem) {
				return out
			}
		}
		if sum.CPU > cap.CPU+opts.CPUOvercommitTolerance {
			if add("machine-cpu-capacity", "machine %d window %v: summed cpu usage %.4f > capacity %.4f",
				k.machine, k.start, sum.CPU, cap.CPU) {
				return out
			}
		}
	}

	return out
}

// validatorFixtures are the hand-built traces of trace_test.go, the
// TestValidate* ones included, plus a few that break the invariants no
// other fixture reaches.
func validatorFixtures() map[string]*MemTrace {
	fx := make(map[string]*MemTrace)
	build := func(name string, rows func(tr *MemTrace)) {
		tr := NewMemTrace(Meta{})
		rows(tr)
		fx[name] = tr
	}
	fx["test-trace"] = newTestTrace()
	removed := newTestTrace()
	removed.MachineEvent(MachineEvent{Time: 500, Machine: 2, Type: MachineRemove})
	fx["test-trace-machine-removed"] = removed

	build("termination-before-submit", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Time: 5, Collection: 1, Type: EventFinish, CollectionType: CollectionJob})
	})
	build("double-termination", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
		tr.CollectionEvent(CollectionEvent{Time: 2, Collection: 1, Type: EventFinish})
		tr.CollectionEvent(CollectionEvent{Time: 3, Collection: 1, Type: EventKill})
	})
	build("resubmit-after-evict", func(tr *MemTrace) {
		tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}})
		tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 1, Key: InstanceKey{1, 0}, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 2, Key: InstanceKey{1, 0}, Type: EventSchedule, Machine: 1})
		tr.InstanceEvent(InstanceEvent{Time: 3, Key: InstanceKey{1, 0}, Type: EventEvict, Machine: 1})
		tr.InstanceEvent(InstanceEvent{Time: 4, Key: InstanceKey{1, 0}, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 5, Key: InstanceKey{1, 0}, Type: EventSchedule, Machine: 1})
		tr.InstanceEvent(InstanceEvent{Time: 6, Key: InstanceKey{1, 0}, Type: EventFinish, Machine: 1})
		tr.CollectionEvent(CollectionEvent{Time: 6, Collection: 1, Type: EventFinish})
	})
	build("unknown-machine", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 1, Key: InstanceKey{1, 0}, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 2, Key: InstanceKey{1, 0}, Type: EventSchedule, Machine: 99})
	})
	build("time-disorder", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Time: 10, Collection: 1, Type: EventSubmit})
		tr.CollectionEvent(CollectionEvent{Time: 5, Collection: 1, Type: EventFinish})
	})
	build("memory-over-capacity", func(tr *MemTrace) {
		tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 0.5}})
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 1, Type: EventSubmit})
		for i := int32(0); i < 2; i++ {
			tr.InstanceEvent(InstanceEvent{Time: 0, Key: InstanceKey{1, i}, Type: EventSubmit})
			tr.InstanceEvent(InstanceEvent{Time: 1, Key: InstanceKey{1, i}, Type: EventSchedule, Machine: 1})
			tr.Usage([]UsageRecord{{Start: 0, End: sim.SampleWindow, Key: InstanceKey{1, i}, Machine: 1,
				AvgUsage: Resources{CPU: 0.1, Mem: 0.4}, MaxUsage: Resources{CPU: 0.1, Mem: 0.4}}})
		}
	})
	build("child-outliving-parent", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 1, Type: EventSubmit})
		tr.CollectionEvent(CollectionEvent{Time: 10, Collection: 1, Type: EventFinish})
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 2, Type: EventSubmit, Parent: 1})
		tr.CollectionEvent(CollectionEvent{Time: 10 + sim.Hour, Collection: 2, Type: EventFinish, Parent: 1})
	})
	build("max-violations", func(tr *MemTrace) {
		for i := CollectionID(1); i <= 50; i++ {
			tr.CollectionEvent(CollectionEvent{Time: 1, Collection: i, Type: EventFinish})
		}
	})
	build("usage-checks", func(tr *MemTrace) {
		tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}})
		tr.Usage([]UsageRecord{{Start: 10, End: 10, Key: InstanceKey{1, 0}, Machine: 1}})
		tr.Usage([]UsageRecord{{Start: 0, End: 10, Key: InstanceKey{1, 0}, Machine: 1,
			AvgUsage: Resources{CPU: 0.5}, MaxUsage: Resources{CPU: 0.1}}})
	})
	build("multisink-fanout", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Collection: 1, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Key: InstanceKey{1, 0}, Type: EventSubmit})
		tr.Usage([]UsageRecord{{Start: 0, End: 1, Key: InstanceKey{1, 0}}})
		tr.MachineEvent(MachineEvent{Machine: 1, Type: MachineAdd})
	})

	build("instance-lifecycle", func(tr *MemTrace) {
		tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}})
		tr.MachineEvent(MachineEvent{Time: 50, Machine: 1, Type: MachineRemove})
		tr.MachineEvent(MachineEvent{Time: 60, Machine: 2, Type: MachineRemove})
		tr.CollectionEvent(CollectionEvent{Time: 1, Collection: 1, Type: EventSubmit})
		a, b := InstanceKey{1, 0}, InstanceKey{1, 1}
		tr.InstanceEvent(InstanceEvent{Time: 5, Key: a, Type: EventSchedule, Machine: 1})
		tr.InstanceEvent(InstanceEvent{Time: 6, Key: a, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 4, Key: a, Type: EventSchedule})
		tr.InstanceEvent(InstanceEvent{Time: 70, Key: a, Type: EventSchedule, Machine: 1})
		tr.InstanceEvent(InstanceEvent{Time: 80, Key: a, Type: EventFail})
		tr.InstanceEvent(InstanceEvent{Time: 90, Key: a, Type: EventLost})
		tr.InstanceEvent(InstanceEvent{Time: 1, Key: b, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 2, Key: b, Type: EventSchedule, Machine: 2})
		tr.InstanceEvent(InstanceEvent{Time: 3, Key: InstanceKey{7, 2}, Type: EventSubmit})
		tr.InstanceEvent(InstanceEvent{Time: 3, Key: InstanceKey{5, 0}, Type: EventSubmit})
	})
	build("parent-kill", func(tr *MemTrace) {
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 1, Type: EventSubmit})
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 3, Type: EventSubmit, Parent: 1})
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 4, Type: EventSubmit, Parent: 1})
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 5, Type: EventSubmit, Parent: 9})
		tr.CollectionEvent(CollectionEvent{Time: 10, Collection: 1, Type: EventKill})
		tr.CollectionEvent(CollectionEvent{Time: 10 + sim.Hour, Collection: 2, Type: EventSubmit, Parent: 1})
		tr.CollectionEvent(CollectionEvent{Time: 10 + sim.Hour + sim.Minute, Collection: 2, Type: EventKill, Parent: 1})
		tr.CollectionEvent(CollectionEvent{Time: 10 + sim.Minute, Collection: 4, Type: EventKill, Parent: 1})
		// Parent 6 terminates twice; its child's grace runs from the
		// second termination.
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 6, Type: EventSubmit})
		tr.CollectionEvent(CollectionEvent{Time: 0, Collection: 7, Type: EventSubmit, Parent: 6})
		tr.CollectionEvent(CollectionEvent{Time: 10, Collection: 6, Type: EventFinish})
		tr.CollectionEvent(CollectionEvent{Time: 20, Collection: 6, Type: EventSubmit})
		tr.CollectionEvent(CollectionEvent{Time: 20 + sim.Hour, Collection: 6, Type: EventKill})
		tr.CollectionEvent(CollectionEvent{Time: 20 + sim.Hour + sim.Minute, Collection: 7, Type: EventKill, Parent: 6})
	})
	build("window-capacity", func(tr *MemTrace) {
		tr.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 0.5, Mem: 0.5}})
		tr.MachineEvent(MachineEvent{Time: 0, Machine: 2, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}})
		tr.MachineEvent(MachineEvent{Time: 9, Machine: 2, Type: MachineUpdate, Capacity: Resources{CPU: 0.2, Mem: 0.2}})
		over := Resources{CPU: 0.4, Mem: 0.4}
		// Two records spanning three windows each, overlapping in one
		// window on machine 1; a partial record on machine 2 over its
		// updated capacity; one on a machine with no capacity record; a
		// negative one.
		tr.Usage([]UsageRecord{
			{Start: sim.SampleWindow / 2, End: 3 * sim.SampleWindow, Key: InstanceKey{1, 0}, Machine: 1, AvgUsage: over, MaxUsage: over},
			{Start: 2 * sim.SampleWindow, End: 4 * sim.SampleWindow, Key: InstanceKey{1, 1}, Machine: 1, AvgUsage: over, MaxUsage: over},
		})
		tr.Usage([]UsageRecord{
			{Start: 0, End: sim.SampleWindow, Key: InstanceKey{1, 2}, Machine: 2, AvgUsage: over, MaxUsage: over},
			{Start: 0, End: sim.SampleWindow, Key: InstanceKey{1, 3}, Machine: 3, AvgUsage: over, MaxUsage: over},
			{Start: 0, End: sim.SampleWindow, Key: InstanceKey{1, 4}, Machine: 1, AvgUsage: Resources{CPU: -1}, MaxUsage: Resources{Mem: -1}},
		})
	})
	return fx
}

// violationSet renders violations as a sorted multiset of strings.
func violationSet(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

// replayOneRecordBlocks replays t into s like (*MemTrace).Replay, but
// with the usage stream cut into one-record blocks.
func replayOneRecordBlocks(t *MemTrace, s Sink) {
	head := *t
	head.UsageRecords = nil
	head.Replay(s)
	for i := range t.UsageRecords {
		s.Usage(t.UsageRecords[i : i+1])
	}
}

// TestValidatorMatchesOracle compares the streaming Validator with the
// walker oracle, untruncated, on every hand-built fixture: fed by
// Validate's one-block replay and by one-record usage blocks.
func TestValidatorMatchesOracle(t *testing.T) {
	opts := DefaultValidateOptions()
	opts.MaxViolations = 0
	reached := make(map[string]bool)
	for name, tr := range validatorFixtures() {
		want := violationSet(validateOracle(tr, opts))
		if got := violationSet(Validate(tr, opts)); !slices.Equal(got, want) {
			t.Errorf("%s: Validate\n%q\noracle\n%q", name, got, want)
		}
		v := NewValidator(opts)
		replayOneRecordBlocks(tr, v)
		if got := violationSet(v.Violations()); !slices.Equal(got, want) {
			t.Errorf("%s: one-record blocks\n%q\noracle\n%q", name, got, want)
		}
		for _, f := range Validate(tr, opts) {
			reached[f.Invariant] = true
		}
	}
	// Every invariant name the validator can report is exercised.
	for _, inv := range []string{
		"coll-time-order", "submit-before-termination", "double-termination", "parent-kill",
		"inst-time-order", "schedule-before-submit", "schedule-machine", "orphan-instance",
		"usage-window", "usage-negative", "usage-avg-max", "usage-machine",
		"machine-mem-capacity", "machine-cpu-capacity",
	} {
		if !reached[inv] {
			t.Errorf("no fixture reaches %s", inv)
		}
	}
}

// TestValidatorOrderAndTruncation checks Violations lists the per-row
// findings in stream order before the end-of-stream ones, and that a
// truncated result is the untruncated one cut at MaxViolations.
func TestValidatorOrderAndTruncation(t *testing.T) {
	opts := DefaultValidateOptions()
	opts.MaxViolations = 0
	for name, tr := range validatorFixtures() {
		all := Validate(tr, opts)
		endOfStream := false
		for _, f := range all {
			switch f.Invariant {
			case "parent-kill", "orphan-instance", "usage-machine", "machine-mem-capacity", "machine-cpu-capacity":
				endOfStream = true
			default:
				if endOfStream {
					t.Errorf("%s: per-row finding %v after an end-of-stream one", name, f)
				}
			}
		}
		for max := 1; max <= len(all); max++ {
			opts := opts
			opts.MaxViolations = max
			if got := Validate(tr, opts); !slices.Equal(got, all[:max]) {
				t.Errorf("%s: MaxViolations %d gave %v, want %v", name, max, got, all[:max])
			}
		}
	}
}
