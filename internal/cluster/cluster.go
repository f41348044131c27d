// Package cluster models the physical substrate of a Borg cell: machines
// with heterogeneous shapes (Figure 1), capacity and allocation accounting
// with overcommit (Figure 4), and resident-instance tracking used by the
// scheduler for placement, preemption, and OOM handling.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Shape is a machine configuration: normalized CPU/memory capacity plus
// the hardware platform it belongs to. Weight is the relative frequency of
// the shape in the fleet.
type Shape struct {
	Capacity trace.Resources
	Platform string
	Weight   float64
}

// Shapes2011 reproduces the 2011 trace's machine mix: 10 machine shapes
// across 3 hardware platforms (Table 1), dominated by one mid-size shape,
// with capacities normalized to the largest machine.
var Shapes2011 = []Shape{
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.50}, Platform: "A", Weight: 0.53},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.25}, Platform: "A", Weight: 0.31},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.75}, Platform: "A", Weight: 0.08},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 1.00}, Platform: "B", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.25, Mem: 0.25}, Platform: "B", Weight: 0.03},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.12}, Platform: "B", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.03}, Platform: "B", Weight: 0.005},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.97}, Platform: "C", Weight: 0.004},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 0.50}, Platform: "C", Weight: 0.006},
	{Capacity: trace.Resources{CPU: 0.25, Mem: 0.50}, Platform: "C", Weight: 0.005},
}

// Shapes2019 reproduces the 2019 mix: 21 shapes across 7 platforms with a
// much wider spread of CPU:memory ratios (Figure 1, Table 1).
var Shapes2019 = []Shape{
	{Capacity: trace.Resources{CPU: 0.25, Mem: 0.25}, Platform: "P0", Weight: 0.18},
	{Capacity: trace.Resources{CPU: 0.35, Mem: 0.25}, Platform: "P0", Weight: 0.12},
	{Capacity: trace.Resources{CPU: 0.35, Mem: 0.45}, Platform: "P0", Weight: 0.10},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.50}, Platform: "P1", Weight: 0.14},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.25}, Platform: "P1", Weight: 0.08},
	{Capacity: trace.Resources{CPU: 0.50, Mem: 0.75}, Platform: "P1", Weight: 0.05},
	{Capacity: trace.Resources{CPU: 0.60, Mem: 0.35}, Platform: "P2", Weight: 0.06},
	{Capacity: trace.Resources{CPU: 0.60, Mem: 0.60}, Platform: "P2", Weight: 0.05},
	{Capacity: trace.Resources{CPU: 0.60, Mem: 0.90}, Platform: "P2", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 0.75, Mem: 0.50}, Platform: "P3", Weight: 0.04},
	{Capacity: trace.Resources{CPU: 0.75, Mem: 0.75}, Platform: "P3", Weight: 0.04},
	{Capacity: trace.Resources{CPU: 0.75, Mem: 1.00}, Platform: "P3", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 0.50}, Platform: "P4", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 0.75}, Platform: "P4", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 1.00, Mem: 1.00}, Platform: "P4", Weight: 0.02},
	{Capacity: trace.Resources{CPU: 0.30, Mem: 0.60}, Platform: "P5", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.30, Mem: 0.90}, Platform: "P5", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.15, Mem: 0.15}, Platform: "P5", Weight: 0.01},
	{Capacity: trace.Resources{CPU: 0.90, Mem: 0.30}, Platform: "P6", Weight: 0.005},
	{Capacity: trace.Resources{CPU: 0.90, Mem: 0.15}, Platform: "P6", Weight: 0.0025},
	{Capacity: trace.Resources{CPU: 0.15, Mem: 0.45}, Platform: "P6", Weight: 0.0025},
}

// Resident is one instance placed on a machine, with the accounting data
// the scheduler needs for preemption and OOM-victim selection.
type Resident struct {
	Key      trace.InstanceKey
	Limit    trace.Resources
	Priority int
	Tier     trace.Tier
	// Usage is the most recent sampled usage; updated by the usage model
	// each sampling window. While a resident is placed, writes must go
	// through Machine.SetUsage or Machine.SetResidentUsage so the
	// machine's incremental usage aggregate stays consistent.
	Usage trace.Resources
	// Task is an opaque owner cookie: the scheduler stores its task
	// pointer here when it places the resident so per-window sampling
	// avoids a key-to-task map lookup. The cluster never reads it; it is
	// cleared when the scheduler recycles the resident.
	Task any
}

// Machine is one node of the cell with capacity, allocation, and resident
// accounting. All mutation goes through the Cell so that cell-level
// aggregates stay consistent. Allocation, usage, victim order and the
// overcommit ceiling are maintained incrementally: the placement fast
// path reads them in O(1) instead of rescanning residents.
type Machine struct {
	ID       trace.MachineID
	Capacity trace.Resources
	Platform string

	allocated  trace.Resources
	usageTotal trace.Resources
	residents  map[trace.InstanceKey]*Resident

	// gen counts state mutations (place, remove, limit update, usage
	// sample). The scheduler's score cache keys on it: an unchanged gen
	// guarantees every input to a machine's placement score is unchanged,
	// so memoized scores are exact, never approximations.
	gen uint64

	// victims caches the (priority asc, key asc) resident ordering and is
	// repaired lazily: membership mutations only mark it dirty, and the
	// next Residents call rebuilds it into a fresh slice. Slices already
	// handed out stay valid as stable snapshots.
	victims      []*Resident
	victimsDirty bool

	// ceil memoizes the allocation ceiling for ceilPolicy; recomputed
	// only when the policy changes (capacity is immutable after AddMachine).
	ceil       trace.Resources
	ceilPolicy OvercommitPolicy
	ceilValid  bool
}

// Allocated returns the summed limits of residents.
func (m *Machine) Allocated() trace.Resources { return m.allocated }

// NumResidents returns the number of placed instances.
func (m *Machine) NumResidents() int { return len(m.residents) }

// Gen returns the machine's mutation generation. Any change to the
// machine's allocation, residents, limits or sampled usage bumps it.
func (m *Machine) Gen() uint64 { return m.gen }

// Residents returns the resident list sorted by (priority asc, key) —
// i.e. preemption-victim order first. The slice is a cached snapshot:
// callers must not modify it, and it is structurally stable (it is
// replaced, not rewritten, on the next mutation), so evicting while
// iterating is safe — but entries removed from the machine belong to
// the remover afterwards (the scheduler recycles them), so a snapshot
// must not be retained across scheduling events nor its removed entries
// dereferenced.
func (m *Machine) Residents() []*Resident {
	if m.victimsDirty {
		out := make([]*Resident, 0, len(m.residents))
		for _, r := range m.residents {
			out = append(out, r)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Priority != out[j].Priority {
				return out[i].Priority < out[j].Priority
			}
			if out[i].Key.Collection != out[j].Key.Collection {
				return out[i].Key.Collection < out[j].Key.Collection
			}
			return out[i].Key.Index < out[j].Key.Index
		})
		m.victims = out
		m.victimsDirty = false
	}
	return m.victims
}

// Resident returns the resident with the given key, or nil.
func (m *Machine) Resident(key trace.InstanceKey) *Resident {
	return m.residents[key]
}

// UsageTotal returns the summed last-sampled usage of all residents,
// maintained incrementally by Place/Remove/SetUsage.
func (m *Machine) UsageTotal() trace.Resources { return m.usageTotal }

// SetUsage records a resident's sampled usage, keeping the machine's
// usage aggregate consistent. It reports whether the resident exists.
func (m *Machine) SetUsage(key trace.InstanceKey, usage trace.Resources) bool {
	r := m.residents[key]
	if r == nil {
		return false
	}
	m.SetResidentUsage(r, usage)
	return true
}

// SetResidentUsage is SetUsage for a caller already holding the resident
// (e.g. from a Residents snapshot): same aggregate maintenance, no map
// lookup. The resident must currently be placed on m.
func (m *Machine) SetResidentUsage(r *Resident, usage trace.Resources) {
	m.usageTotal = m.usageTotal.Sub(r.Usage).Add(usage)
	m.clampAggregates()
	r.Usage = usage
	m.gen++
}

// mutated records a resident-set mutation: the victim order needs repair
// and cached scores are stale.
func (m *Machine) mutated() {
	m.victimsDirty = true
	m.gen++
}

// clampAggregates zeroes numeric drift so long simulations cannot
// accumulate negative aggregates; with no residents the aggregates are
// reset to exactly zero.
func (m *Machine) clampAggregates() {
	if len(m.residents) == 0 {
		m.allocated = trace.Resources{}
		m.usageTotal = trace.Resources{}
		return
	}
	if m.allocated.CPU < 0 {
		m.allocated.CPU = 0
	}
	if m.allocated.Mem < 0 {
		m.allocated.Mem = 0
	}
	if m.usageTotal.CPU < 0 {
		m.usageTotal.CPU = 0
	}
	if m.usageTotal.Mem < 0 {
		m.usageTotal.Mem = 0
	}
}

// OvercommitPolicy bounds the ratio of summed limits to capacity per
// resource dimension (§4: in 2011 CPU was more aggressively over-committed
// than memory; by 2019 they are comparable).
type OvercommitPolicy struct {
	CPUFactor float64
	MemFactor float64
}

// AllocationCeiling returns the machine allocation bound under the policy.
func (p OvercommitPolicy) AllocationCeiling(capacity trace.Resources) trace.Resources {
	return trace.Resources{
		CPU: capacity.CPU * p.CPUFactor,
		Mem: capacity.Mem * p.MemFactor,
	}
}

// Ceiling returns the machine's allocation ceiling under the policy,
// memoized until the policy changes.
func (m *Machine) Ceiling(policy OvercommitPolicy) trace.Resources {
	if !m.ceilValid || policy != m.ceilPolicy {
		m.ceil = policy.AllocationCeiling(m.Capacity)
		m.ceilPolicy = policy
		m.ceilValid = true
	}
	return m.ceil
}

// FitsLimit reports whether a request fits on m under the overcommit
// policy, considering current allocation.
func (m *Machine) FitsLimit(request trace.Resources, policy OvercommitPolicy) bool {
	ceiling := m.Ceiling(policy)
	after := m.allocated.Add(request)
	return after.CPU <= ceiling.CPU+1e-12 && after.Mem <= ceiling.Mem+1e-12
}

// Cell is a set of machines operated as one scheduling domain.
type Cell struct {
	Name string

	// byID indexes machines by ID; a removed machine's entry is nil.
	// IDs are dense from 1 and never reused, so entry 0 is always nil.
	byID []*Machine
	// live lists the live machines in ascending ID order.
	live []*Machine
	// occ lists machines that currently hold at least one resident, in
	// ascending ID order. Place/Remove maintain it on the 0↔1 resident
	// transitions so per-window sampling walks only occupied machines.
	occ      []*Machine
	capacity trace.Resources // total live capacity
	nextID   trace.MachineID
}

// NewCell returns an empty cell.
func NewCell(name string) *Cell {
	return &Cell{
		Name:   name,
		byID:   []*Machine{nil},
		nextID: 1,
	}
}

// AddMachine creates a machine with the given shape and returns it.
func (c *Cell) AddMachine(capacity trace.Resources, platform string) *Machine {
	m := &Machine{
		ID:        c.nextID,
		Capacity:  capacity,
		Platform:  platform,
		residents: make(map[trace.InstanceKey]*Resident),
	}
	c.nextID++
	c.byID = append(c.byID, m)
	c.live = append(c.live, m)
	c.capacity = c.capacity.Add(capacity)
	return m
}

// RemoveMachine deletes a machine from the cell and returns its residents
// (which the caller must reschedule). Removing an unknown machine panics.
func (c *Cell) RemoveMachine(id trace.MachineID) []*Resident {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: removing unknown machine %d", id))
	}
	res := m.Residents()
	for _, r := range res {
		c.Remove(id, r.Key)
	}
	c.byID[id] = nil
	// live is sorted by ID (AddMachine appends monotonically increasing
	// IDs and removals preserve order), so the slot is found by binary
	// search rather than a linear scan.
	i := sort.Search(len(c.live), func(i int) bool { return c.live[i].ID >= id })
	c.live = slices.Delete(c.live, i, i+1)
	c.capacity = c.capacity.Sub(m.Capacity)
	return res
}

// Machine returns the machine with the given ID, or nil if there is no
// live machine with that ID.
func (c *Cell) Machine(id trace.MachineID) *Machine {
	if id <= 0 || int(id) >= len(c.byID) {
		return nil
	}
	return c.byID[id]
}

// NumMachines returns the count of live machines.
func (c *Cell) NumMachines() int { return len(c.live) }

// Capacity returns the total live capacity of the cell.
func (c *Cell) Capacity() trace.Resources { return c.capacity }

// MachineIDs returns a fresh slice of the live machine IDs in ascending
// order.
func (c *Cell) MachineIDs() []trace.MachineID {
	ids := make([]trace.MachineID, len(c.live))
	for i, m := range c.live {
		ids[i] = m.ID
	}
	return ids
}

// LiveMachines returns the live machines in ascending ID order. The slice
// is the cell's live index: callers must not modify it or retain it
// across machine additions or removals.
func (c *Cell) LiveMachines() []*Machine { return c.live }

// OccupiedMachines returns the machines holding at least one resident,
// in ascending ID order. The slice is the cell's live index: callers
// must not modify it or retain it across placements.
func (c *Cell) OccupiedMachines() []*Machine { return c.occ }

// occIndex returns the position of (or insertion point for) machine ID
// id in the occupied index.
func (c *Cell) occIndex(id trace.MachineID) int {
	return sort.Search(len(c.occ), func(i int) bool { return c.occ[i].ID >= id })
}

// occupy inserts m into the occupied index (first resident arrived).
func (c *Cell) occupy(m *Machine) {
	i := c.occIndex(m.ID)
	c.occ = append(c.occ, nil)
	copy(c.occ[i+1:], c.occ[i:])
	c.occ[i] = m
}

// vacate drops m from the occupied index (last resident left).
func (c *Cell) vacate(m *Machine) {
	if i := c.occIndex(m.ID); i < len(c.occ) && c.occ[i] == m {
		c.occ = append(c.occ[:i], c.occ[i+1:]...)
	}
}

// Machines calls fn for every live machine in ID order.
func (c *Cell) Machines(fn func(m *Machine)) {
	for _, m := range c.live {
		fn(m)
	}
}

// Place adds a resident to a machine. It panics on unknown machines or
// duplicate placement — both indicate scheduler bugs, not runtime
// conditions.
func (c *Cell) Place(id trace.MachineID, r *Resident) {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: placing on unknown machine %d", id))
	}
	if _, dup := m.residents[r.Key]; dup {
		panic(fmt.Sprintf("cluster: instance %s already on machine %d", r.Key, id))
	}
	m.residents[r.Key] = r
	m.allocated = m.allocated.Add(r.Limit)
	m.usageTotal = m.usageTotal.Add(r.Usage)
	if len(m.residents) == 1 {
		c.occupy(m)
	}
	m.mutated()
}

// Remove detaches a resident from a machine and returns it. Removing a
// non-resident instance panics.
func (c *Cell) Remove(id trace.MachineID, key trace.InstanceKey) *Resident {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: removing from unknown machine %d", id))
	}
	r, ok := m.residents[key]
	if !ok {
		panic(fmt.Sprintf("cluster: instance %s not on machine %d", key, id))
	}
	delete(m.residents, key)
	m.allocated = m.allocated.Sub(r.Limit)
	m.usageTotal = m.usageTotal.Sub(r.Usage)
	if len(m.residents) == 0 {
		c.vacate(m)
	}
	m.clampAggregates()
	m.mutated()
	return r
}

// UpdateLimit changes a resident's limit in place, keeping the machine's
// allocation aggregate consistent. Used by Autopilot's vertical scaling.
func (c *Cell) UpdateLimit(id trace.MachineID, key trace.InstanceKey, limit trace.Resources) {
	m := c.Machine(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: updating on unknown machine %d", id))
	}
	r, ok := m.residents[key]
	if !ok {
		panic(fmt.Sprintf("cluster: instance %s not on machine %d", key, id))
	}
	m.allocated = m.allocated.Sub(r.Limit).Add(limit)
	r.Limit = limit
	// Limit changes alter fit and score but not the victim order (which
	// sorts by priority and key), so only the generation moves.
	m.gen++
}

// TotalAllocated sums limit allocation across all machines.
func (c *Cell) TotalAllocated() trace.Resources {
	var sum trace.Resources
	for _, m := range c.live {
		sum = sum.Add(m.allocated)
	}
	return sum
}

// BuildCell creates a cell of n machines drawn from the shape catalog
// with the catalog's weights, using src for shape selection.
func BuildCell(name string, n int, shapes []Shape, src *rng.Source) *Cell {
	if len(shapes) == 0 {
		panic("cluster: empty shape catalog")
	}
	weights := make([]float64, len(shapes))
	for i, s := range shapes {
		weights[i] = s.Weight
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	c := NewCell(name)
	for i := 0; i < n; i++ {
		u := src.Float64() * total
		j := sort.SearchFloat64s(cum, u)
		if j >= len(shapes) {
			j = len(shapes) - 1
		}
		c.AddMachine(shapes[j].Capacity, shapes[j].Platform)
	}
	return c
}
