package trace

import (
	"cmp"
	"fmt"
	"slices"

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

// MemTrace is an in-memory trace store: the Sink that retains every row,
// one slice per table in emission order, and nothing else. Post-hoc
// consumers (WriteDir, Validate, streaming.Replay) replay it into a
// Sink. MemTrace is not safe for concurrent mutation.
type MemTrace struct {
	Meta Meta

	CollectionEvents []CollectionEvent
	InstanceEvents   []InstanceEvent
	UsageRecords     []UsageRecord
	MachineEvents    []MachineEvent
}

// NewMemTrace returns an empty store with the given metadata.
func NewMemTrace(meta Meta) *MemTrace {
	return &MemTrace{Meta: meta}
}

// CollectionEvent stores the row.
func (t *MemTrace) CollectionEvent(ev CollectionEvent) {
	t.CollectionEvents = append(t.CollectionEvents, ev)
}

// InstanceEvent stores the row.
func (t *MemTrace) InstanceEvent(ev InstanceEvent) {
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

// Replay feeds the stored rows to s: machine events, then collection
// events, then instance events, each in emission order, then every usage
// record as one block. It is the one walk behind every post-hoc
// consumer, so they see the rows a live sink would have seen, grouped
// by table.
func (t *MemTrace) Replay(s Sink) {
	for _, ev := range t.MachineEvents {
		s.MachineEvent(ev)
	}
	for _, ev := range t.CollectionEvents {
		s.CollectionEvent(ev)
	}
	for _, ev := range t.InstanceEvents {
		s.InstanceEvent(ev)
	}
	s.Usage(t.UsageRecords)
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
	var out []CollectionInfo
	at := make(map[CollectionID]int) // index into out
	for _, ev := range t.CollectionEvents {
		i, ok := at[ev.Collection]
		if !ok {
			i = len(out)
			at[ev.Collection] = i
			out = append(out, CollectionInfo{
				ID:             ev.Collection,
				CollectionType: ev.CollectionType,
				Priority:       ev.Priority,
				Tier:           ev.Tier,
				User:           ev.User,
				Parent:         ev.Parent,
				AllocSet:       ev.AllocSet,
				Scheduler:      ev.Scheduler,
				Scaling:        ev.Scaling,
				SubmitTime:     ev.Time,
				FinalEvent:     EventSubmit,
			})
		}
		if ev.Type.IsTermination() {
			out[i].FinalEvent = ev.Type
			out[i].FinalTime = ev.Time
		}
	}
	slices.SortFunc(out, func(a, b CollectionInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Counts summarizes row counts; used in logs and Table 1.
func (t *MemTrace) Counts() string {
	colls := make(map[CollectionID]struct{})
	for _, ev := range t.CollectionEvents {
		colls[ev.Collection] = struct{}{}
	}
	insts := make(map[InstanceKey]struct{})
	for _, ev := range t.InstanceEvents {
		insts[ev.Key] = struct{}{}
	}
	return fmt.Sprintf("collections=%d instances=%d collEvents=%d instEvents=%d usage=%d machineEvents=%d",
		len(colls), len(insts), len(t.CollectionEvents),
		len(t.InstanceEvents), len(t.UsageRecords), len(t.MachineEvents))
}
