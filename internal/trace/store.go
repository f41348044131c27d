package trace

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Meta describes a generated trace: which era profile produced it, the cell
// name, and the simulated horizon. It backs Table 1.
type Meta struct {
	Era      Era
	Cell     string   // "2011", or "a".."h" for 2019 cells
	Duration sim.Time // simulated horizon
	Machines int      // machines at trace start
	Seed     uint64   // root seed used for generation
}

// MemTrace is an in-memory trace store: the Sink that retains everything.
// It also builds the per-collection and per-instance indexes the analyses
// need. MemTrace is not safe for concurrent mutation.
type MemTrace struct {
	Meta Meta

	CollectionEvents []CollectionEvent
	InstanceEvents   []InstanceEvent
	UsageRecords     []UsageRecord
	MachineEvents    []MachineEvent

	collIndex map[CollectionID][]int // indexes into CollectionEvents
	instIndex map[InstanceKey][]int  // indexes into InstanceEvents
}

// NewMemTrace returns an empty store with the given metadata.
func NewMemTrace(meta Meta) *MemTrace {
	return &MemTrace{
		Meta:      meta,
		collIndex: make(map[CollectionID][]int),
		instIndex: make(map[InstanceKey][]int),
	}
}

// CollectionEvent stores the row.
func (t *MemTrace) CollectionEvent(ev CollectionEvent) {
	t.collIndex[ev.Collection] = append(t.collIndex[ev.Collection], len(t.CollectionEvents))
	t.CollectionEvents = append(t.CollectionEvents, ev)
}

// InstanceEvent stores the row.
func (t *MemTrace) InstanceEvent(ev InstanceEvent) {
	t.instIndex[ev.Key] = append(t.instIndex[ev.Key], len(t.InstanceEvents))
	t.InstanceEvents = append(t.InstanceEvents, ev)
}

// Usage stores a copy of the block's rows with one append.
func (t *MemTrace) Usage(recs []UsageRecord) {
	t.UsageRecords = append(t.UsageRecords, recs...)
}

// MachineEvent stores the row.
func (t *MemTrace) MachineEvent(ev MachineEvent) {
	t.MachineEvents = append(t.MachineEvents, ev)
}

// Collections returns the IDs of all collections seen, sorted.
func (t *MemTrace) Collections() []CollectionID {
	ids := make([]CollectionID, 0, len(t.collIndex))
	for id := range t.collIndex {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// EventsOf returns the collection's events in emission order.
func (t *MemTrace) EventsOf(id CollectionID) []CollectionEvent {
	idxs := t.collIndex[id]
	out := make([]CollectionEvent, len(idxs))
	for i, idx := range idxs {
		out[i] = t.CollectionEvents[idx]
	}
	return out
}

// Instances returns all instance keys seen, sorted.
func (t *MemTrace) Instances() []InstanceKey {
	keys := make([]InstanceKey, 0, len(t.instIndex))
	for k := range t.instIndex {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Collection != keys[j].Collection {
			return keys[i].Collection < keys[j].Collection
		}
		return keys[i].Index < keys[j].Index
	})
	return keys
}

// InstanceEventsOf returns the instance's events in emission order.
func (t *MemTrace) InstanceEventsOf(k InstanceKey) []InstanceEvent {
	idxs := t.instIndex[k]
	out := make([]InstanceEvent, len(idxs))
	for i, idx := range idxs {
		out[i] = t.InstanceEvents[idx]
	}
	return out
}

// CollectionInfo is the static view of one collection, reconstructed from
// its first event (the trace repeats static attributes on every row).
type CollectionInfo struct {
	ID             CollectionID
	CollectionType CollectionType
	Priority       int
	Tier           Tier
	User           string
	Parent         CollectionID
	AllocSet       CollectionID
	Scheduler      SchedulerKind
	Scaling        VerticalScaling

	SubmitTime sim.Time
	// FinalEvent is the last termination event observed, or EventSubmit
	// if the collection never terminated inside the trace window.
	FinalEvent EventType
	FinalTime  sim.Time
}

// CollectionInfos reconstructs the static attributes and outcome of every
// collection in the trace, sorted by ID.
func (t *MemTrace) CollectionInfos() []CollectionInfo {
	out := make([]CollectionInfo, 0, len(t.collIndex))
	for _, id := range t.Collections() {
		evs := t.EventsOf(id)
		first := evs[0]
		info := CollectionInfo{
			ID:             id,
			CollectionType: first.CollectionType,
			Priority:       first.Priority,
			Tier:           first.Tier,
			User:           first.User,
			Parent:         first.Parent,
			AllocSet:       first.AllocSet,
			Scheduler:      first.Scheduler,
			Scaling:        first.Scaling,
			SubmitTime:     first.Time,
			FinalEvent:     EventSubmit,
		}
		for _, ev := range evs {
			if ev.Type.IsTermination() {
				info.FinalEvent = ev.Type
				info.FinalTime = ev.Time
			}
		}
		out = append(out, info)
	}
	return out
}

// MachineCapacities returns each machine's final capacity and platform, as
// established by ADD/UPDATE machine events, excluding removed machines.
func (t *MemTrace) MachineCapacities() map[MachineID]MachineEvent {
	m := make(map[MachineID]MachineEvent)
	for _, ev := range t.MachineEvents {
		switch ev.Type {
		case MachineAdd, MachineUpdate:
			m[ev.Machine] = ev
		case MachineRemove:
			delete(m, ev.Machine)
		}
	}
	return m
}

// Counts summarizes row counts; used in logs and Table 1.
func (t *MemTrace) Counts() string {
	return fmt.Sprintf("collections=%d instances=%d collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		len(t.collIndex), len(t.instIndex), len(t.CollectionEvents),
		len(t.InstanceEvents), len(t.UsageRecords), len(t.MachineEvents))
}
