package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// emitMixed streams a deterministic mix of rows into s.
func emitMixed(s Sink, n int) {
	for i := 0; i < n; i++ {
		t := sim.Time(i) * sim.Second
		s.MachineEvent(MachineEvent{Time: t, Machine: MachineID(i%7 + 1), Type: MachineAdd})
		s.CollectionEvent(CollectionEvent{Time: t, Collection: CollectionID(i), Type: EventSubmit})
		s.InstanceEvent(InstanceEvent{Time: t, Key: InstanceKey{Collection: CollectionID(i)}, Type: EventSubmit})
		s.Usage([]UsageRecord{{Start: t, End: t + sim.Minute, Key: InstanceKey{Collection: CollectionID(i)}}})
	}
}

// usageBlock builds n distinguishable records starting at ordinal base.
func usageBlock(base, n int) []UsageRecord {
	recs := make([]UsageRecord, n)
	for i := range recs {
		t := sim.Time(base+i) * sim.Minute
		recs[i] = UsageRecord{
			Start: t, End: t + sim.Minute,
			Key:      InstanceKey{Collection: CollectionID(base + i), Index: int32(i)},
			Machine:  MachineID(base + i),
			AvgUsage: Resources{CPU: float64(base + i)},
		}
	}
	return recs
}

func TestFanOutFlattensAndDropsNil(t *testing.T) {
	a, b := &CountingSink{}, &CountingSink{}
	s := FanOut(nil, MultiSink{a, nil, MultiSink{b}})
	emitMixed(s, 3)
	if a.Counts() != b.Counts() || a.Counts().Total() != 12 {
		t.Fatalf("counts a=%+v b=%+v", a.Counts(), b.Counts())
	}
	if ms, ok := s.(MultiSink); !ok || len(ms) != 2 {
		t.Fatalf("not flattened: %T %v", s, s)
	}
	if _, ok := FanOut().(NopSink); !ok {
		t.Fatal("empty fan-out not NopSink")
	}
	if single := FanOut(a); single != Sink(a) {
		t.Fatal("single fan-out should unwrap")
	}
}

// blockRecorder keeps the size of every usage block it receives.
type blockRecorder struct {
	NopSink
	sizes []int
}

func (r *blockRecorder) Usage(recs []UsageRecord) { r.sizes = append(r.sizes, len(recs)) }

// TestMultiSinkUsageBatchFansOutInOrder drives a stream of usage blocks,
// empty ones included, through a fan-out: every child sees each block
// whole and in order, and the emitter reusing its backing array after
// each call never reaches the rows MemTrace retained.
func TestMultiSinkUsageBatchFansOutInOrder(t *testing.T) {
	mem := NewMemTrace(Meta{})
	blocks := &blockRecorder{}
	counter := &CountingSink{}
	s := FanOut(mem, blocks, counter)

	var want []UsageRecord
	buf := make([]UsageRecord, 0, 8)
	for _, n := range []int{3, 0, 1, 5} {
		block := append(buf[:0], usageBlock(len(want), n)...)
		want = append(want, block...)
		s.Usage(block)
		for i := range block {
			block[i] = UsageRecord{Machine: -1}
		}
	}
	s.Usage(nil)
	if !reflect.DeepEqual(mem.UsageRecords, want) {
		t.Fatal("retained rows lost, reordered or aliased to the emitter's array")
	}
	if !reflect.DeepEqual(blocks.sizes, []int{3, 0, 1, 5, 0}) {
		t.Fatalf("child saw blocks %v, want [3 0 1 5 0]", blocks.sizes)
	}
	if got := counter.Counts().Usage; got != int64(len(want)) {
		t.Fatalf("counter saw %d rows, want %d", got, len(want))
	}
}

// TestFlushRecursesThroughFanOut puts a DirSink, whose tables sit in
// write buffers until flushed, behind a fan-out: nothing reaches disk
// before Flush, and one Flush on the pipeline drains every table.
func TestFlushRecursesThroughFanOut(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirSink(dir, Meta{Cell: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s := FanOut(&CountingSink{}, ds)
	emitMixed(s, 5)
	lines := func() int {
		b, err := os.ReadFile(filepath.Join(dir, usageFile))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(b), "\n")
	}
	if n := lines(); n != 0 {
		t.Fatalf("%d usage lines on disk before Flush, want 0", n)
	}
	Flush(s)
	if n := lines(); n != 6 { // header + 5 rows
		t.Fatalf("flush through fan-out left %d usage lines, want 6", n)
	}
}

// TestUsageRecordHoldsNoPointer keeps usage rows, the bulk of every
// retained trace, out of the garbage collector's scan work.
func TestUsageRecordHoldsNoPointer(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(UsageRecord{}), "UsageRecord")
}

func TestRowCountsAddTotal(t *testing.T) {
	a := RowCounts{Collections: 1, Instances: 2, Usage: 3, Machines: 4}
	b := a.Add(a)
	if b.Total() != 20 {
		t.Fatalf("total %d", b.Total())
	}
}
