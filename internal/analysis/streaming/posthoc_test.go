package streaming

// The post-hoc walker oracle: each per-figure analysis computed directly
// over a retained MemTrace, one table at a time, independently of the
// reducer's row-by-row state. Production code analyses only through
// CellReducer (live, or fed by Replay); these walkers exist so
// TestReducerMatchesPostHoc has a second, simpler implementation to
// compare every reducer product against bit for bit.

import (
	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MachineShapes returns the distinct machine shapes and their counts,
// sorted by population descending (Figure 1's circle areas).
func MachineShapes(tr *trace.MemTrace) []analysis.ShapePoint {
	return analysis.ShapesOf(tr.MachineCapacities())
}

// inAllocJobs returns the set of collections that run inside alloc sets.
func inAllocJobs(tr *trace.MemTrace) map[trace.CollectionID]bool {
	out := make(map[trace.CollectionID]bool)
	for _, info := range tr.CollectionInfos() {
		if info.CollectionType == trace.CollectionJob && info.AllocSet != 0 {
			out[info.ID] = true
		}
	}
	return out
}

// UsageSeries computes Figure 2's hourly per-tier usage as a fraction of
// cell capacity.
func UsageSeries(tr *trace.MemTrace) analysis.TierSeries {
	return series(tr, false)
}

// AllocationSeries computes Figure 4's hourly per-tier allocation (sum of
// limits) as a fraction of cell capacity. Jobs running inside alloc sets
// are excluded: their limits consume the alloc set's reservation, which is
// already counted.
func AllocationSeries(tr *trace.MemTrace) analysis.TierSeries {
	return series(tr, true)
}

func series(tr *trace.MemTrace, allocation bool) analysis.TierSeries {
	a := analysis.NewSeriesAccum(analysis.SeriesHours(tr.Meta.Duration))
	var inAlloc map[trace.CollectionID]bool
	if allocation {
		inAlloc = inAllocJobs(tr)
	}
	for _, rec := range tr.UsageRecords {
		if allocation {
			if inAlloc[rec.Key.Collection] {
				continue
			}
			a.ObserveAt(rec.Start, rec.Tier, rec.Limit)
		} else {
			a.ObserveAt(rec.Start, rec.Tier, rec.AvgUsage)
		}
	}
	return a.Finish(analysis.TotalCapacity(tr.MachineCapacities()))
}

// AverageUsageByTier computes Figure 3's per-cell bars: the mean over
// post-warmup hours of the per-tier usage fraction.
func AverageUsageByTier(tr *trace.MemTrace, warmup sim.Time) analysis.TierAverages {
	return analysis.AverageOfSeries(UsageSeries(tr), tr.Meta.Cell, warmup)
}

// AverageAllocationByTier computes Figure 5's per-cell bars.
func AverageAllocationByTier(tr *trace.MemTrace, warmup sim.Time) analysis.TierAverages {
	return analysis.AverageOfSeries(AllocationSeries(tr), tr.Meta.Cell, warmup)
}

// MachineUtilization returns each machine's usage÷capacity in the sampling
// window containing at; machines with no usage records in the window count
// as zero (Figure 6's snapshot distribution).
func MachineUtilization(tr *trace.MemTrace, at sim.Time) (cpu, mem []float64) {
	usage := make(map[trace.MachineID]trace.Resources)
	for _, rec := range tr.UsageRecords {
		if rec.Start <= at && at < rec.End && rec.Machine != 0 {
			usage[rec.Machine] = usage[rec.Machine].Add(rec.AvgUsage)
		}
	}
	return analysis.UtilizationSamples(tr.MachineCapacities(), usage)
}

// Transitions counts consecutive event-type pairs across all collections
// and instances of a trace (Figure 7), sorted by count descending.
func Transitions(tr *trace.MemTrace) []analysis.Transition {
	counts := make(analysis.TransitionCounts)
	for _, id := range tr.Collections() {
		evs := tr.EventsOf(id)
		for i := 1; i < len(evs); i++ {
			counts.Observe(evs[i-1].Type, evs[i].Type)
		}
	}
	for _, key := range tr.Instances() {
		evs := tr.InstanceEventsOf(key)
		for i := 1; i < len(evs); i++ {
			counts.Observe(evs[i-1].Type, evs[i].Type)
		}
	}
	return analysis.TransitionsFromCounts(counts)
}

// InventoryOf builds one trace's Table 1 inventory.
func InventoryOf(tr *trace.MemTrace) analysis.Inventory {
	inv := analysis.NewInventory()
	for _, ev := range tr.MachineCapacities() {
		inv.ObserveMachine(ev)
	}
	for _, info := range tr.CollectionInfos() {
		inv.ObserveCollection(info)
	}
	for _, ev := range tr.CollectionEvents {
		if ev.Type == trace.EventQueue {
			inv.BatchQueue = true
		}
	}
	return inv
}

// AllocSetAccumOf builds one trace's §5.1 partial.
func AllocSetAccumOf(tr *trace.MemTrace) analysis.AllocSetAccum {
	var a analysis.AllocSetAccum
	isAllocSet := make(map[trace.CollectionID]bool)
	inAllocSet := make(map[trace.CollectionID]bool)
	for _, info := range tr.CollectionInfos() {
		a.ObserveCollection(info.CollectionType, info.AllocSet, info.Tier)
		if info.CollectionType == trace.CollectionAllocSet {
			isAllocSet[info.ID] = true
		} else if info.AllocSet != 0 {
			inAllocSet[info.ID] = true
		}
	}
	for i := range tr.UsageRecords {
		rec := &tr.UsageRecords[i]
		a.ObserveUsage(rec, isAllocSet[rec.Key.Collection], inAllocSet[rec.Key.Collection])
	}
	return a
}

// TerminationAccumOf builds one trace's §5.2 partial.
func TerminationAccumOf(tr *trace.MemTrace) analysis.TerminationAccum {
	var a analysis.TerminationAccum
	evictions := make(map[trace.CollectionID]int)
	for _, ev := range tr.InstanceEvents {
		if ev.Type == trace.EventEvict {
			evictions[ev.Key.Collection]++
		}
	}
	for _, info := range tr.CollectionInfos() {
		a.ObserveCollection(info, evictions[info.ID])
	}
	return a
}

// RatesOf computes one cell's per-hour submission counts. Alloc sets are
// excluded from the job counts, matching the paper's job-centric view.
func RatesOf(tr *trace.MemTrace) analysis.SubmissionRates {
	hours := analysis.SeriesHours(tr.Meta.Duration)
	out := analysis.SubmissionRates{
		JobsPerHour:     make([]float64, hours),
		NewTasksPerHour: make([]float64, hours),
		AllTasksPerHour: make([]float64, hours),
	}
	isJob := make(map[trace.CollectionID]bool)
	for _, info := range tr.CollectionInfos() {
		if info.CollectionType == trace.CollectionJob {
			isJob[info.ID] = true
		}
	}
	for _, ev := range tr.CollectionEvents {
		if ev.Type == trace.EventSubmit && isJob[ev.Collection] {
			if h := int(ev.Time / sim.Hour); h >= 0 && h < hours {
				out.JobsPerHour[h]++
			}
		}
	}
	seen := make(map[trace.InstanceKey]bool)
	for _, ev := range tr.InstanceEvents {
		if ev.Type != trace.EventSubmit || !isJob[ev.Key.Collection] {
			continue
		}
		h := int(ev.Time / sim.Hour)
		if h < 0 || h >= hours {
			continue
		}
		out.AllTasksPerHour[h]++
		if !seen[ev.Key] {
			seen[ev.Key] = true
			out.NewTasksPerHour[h]++
		}
	}
	return out
}

// DelaysOf computes one cell's Figure 10 scheduling delays.
func DelaysOf(tr *trace.MemTrace) analysis.DelaySamples {
	enable := make(map[trace.CollectionID]sim.Time)
	tier := make(map[trace.CollectionID]trace.Tier)
	for _, ev := range tr.CollectionEvents {
		if ev.Type == trace.EventEnable && ev.CollectionType == trace.CollectionJob {
			if _, ok := enable[ev.Collection]; !ok {
				enable[ev.Collection] = ev.Time
				tier[ev.Collection] = ev.Tier
			}
		}
	}
	first := make(map[trace.CollectionID]sim.Time)
	for _, ev := range tr.InstanceEvents {
		if ev.Type != trace.EventSchedule {
			continue
		}
		if cur, ok := first[ev.Key.Collection]; !ok || ev.Time < cur {
			first[ev.Key.Collection] = ev.Time
		}
	}
	return analysis.FinishDelays(enable, tier, first)
}

// TasksPerJobOf returns one cell's task-count distribution by tier.
func TasksPerJobOf(tr *trace.MemTrace) map[trace.Tier][]float64 {
	out := make(map[trace.Tier][]float64)
	counts := make(map[trace.CollectionID]int)
	for _, key := range tr.Instances() {
		counts[key.Collection]++
	}
	for _, info := range tr.CollectionInfos() {
		if info.CollectionType != trace.CollectionJob {
			continue
		}
		if n := counts[info.ID]; n > 0 {
			out[info.Tier] = append(out[info.Tier], float64(n))
		}
	}
	return out
}

// JobUsageIntegralsOf integrates one cell's jobs (alloc sets excluded:
// they reserve rather than use).
func JobUsageIntegralsOf(tr *trace.MemTrace) analysis.UsageIntegrals {
	isJob := make(map[trace.CollectionID]bool)
	for _, info := range tr.CollectionInfos() {
		if info.CollectionType == trace.CollectionJob {
			isJob[info.ID] = true
		}
	}
	cpu := make(map[trace.CollectionID]float64)
	mem := make(map[trace.CollectionID]float64)
	for _, rec := range tr.UsageRecords {
		if !isJob[rec.Key.Collection] {
			continue
		}
		h := (rec.End - rec.Start).Hours()
		cpu[rec.Key.Collection] += rec.AvgUsage.CPU * h
		mem[rec.Key.Collection] += rec.AvgUsage.Mem * h
	}
	return analysis.FinishIntegrals(cpu, mem)
}

// SlackSamplesOf groups one cell's per-record slack samples by the owning
// collection's vertical-scaling strategy (Figure 14).
func SlackSamplesOf(tr *trace.MemTrace) map[trace.VerticalScaling][]float64 {
	out := make(map[trace.VerticalScaling][]float64)
	scaling := make(map[trace.CollectionID]trace.VerticalScaling)
	isJob := make(map[trace.CollectionID]bool)
	for _, info := range tr.CollectionInfos() {
		scaling[info.ID] = info.Scaling
		isJob[info.ID] = info.CollectionType == trace.CollectionJob
	}
	for i := range tr.UsageRecords {
		rec := &tr.UsageRecords[i]
		if !isJob[rec.Key.Collection] {
			continue
		}
		if s, ok := analysis.SlackSampleOf(rec); ok {
			mode := scaling[rec.Key.Collection]
			out[mode] = append(out[mode], s)
		}
	}
	return out
}
