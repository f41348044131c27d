package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr := newTestTrace()
	dir := t.TempDir()
	if err := WriteDir(tr, dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, f := range []string{metaFile, collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Meta != tr.Meta {
		t.Fatalf("meta %+v != %+v", got.Meta, tr.Meta)
	}
	if !reflect.DeepEqual(got.CollectionEvents, tr.CollectionEvents) {
		t.Fatalf("collection events differ:\n%v\n%v", got.CollectionEvents, tr.CollectionEvents)
	}
	if !reflect.DeepEqual(got.InstanceEvents, tr.InstanceEvents) {
		t.Fatalf("instance events differ")
	}
	if !reflect.DeepEqual(got.UsageRecords, tr.UsageRecords) {
		t.Fatalf("usage records differ:\n%v\n%v", got.UsageRecords, tr.UsageRecords)
	}
	if !reflect.DeepEqual(got.MachineEvents, tr.MachineEvents) {
		t.Fatalf("machine events differ")
	}
}

func TestReadDirMissing(t *testing.T) {
	if _, err := ReadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing dir")
	}
}

// TestReadDirDurationBounds: meta.json is external input, and analyses
// size hourly buckets from its Duration, so ReadDir must reject a
// negative or absurd horizon with an error naming the file instead of
// handing it on.
func TestReadDirDurationBounds(t *testing.T) {
	for _, c := range []struct {
		name     string
		duration sim.Time
		ok       bool
	}{
		{"zero", 0, true},
		{"month", 31 * sim.Day, true},
		{"max", MaxDuration, true},
		{"negative", -sim.Hour, false},
		{"above max", MaxDuration + 1, false},
		{"huge", 9000000000000000000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := newTestTrace()
			tr.Meta.Duration = c.duration
			if err := WriteDir(tr, dir); err != nil {
				t.Fatal(err)
			}
			got, err := ReadDir(dir)
			if c.ok {
				if err != nil {
					t.Fatalf("ReadDir rejected Duration %d: %v", c.duration, err)
				}
				if got.Meta.Duration != c.duration {
					t.Fatalf("Duration %d read back as %d", c.duration, got.Meta.Duration)
				}
				return
			}
			if err == nil {
				t.Fatalf("ReadDir accepted Duration %d", c.duration)
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, metaFile)) {
				t.Fatalf("error %q does not name %s", err, metaFile)
			}
		})
	}
}

// TestReadDirUsageWindowBounds: the validator loops over every 5-minute
// window a usage row spans, so ReadDir must reject a row whose Start or
// End lies outside [0, MaxDuration] or that is longer than one window.
func TestReadDirUsageWindowBounds(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end sim.Time
		ok         bool
	}{
		{"one window", 0, sim.SampleWindow, true},
		{"straddling", sim.SampleWindow / 2, 3 * sim.SampleWindow / 2, true},
		{"last window", MaxDuration - sim.SampleWindow, MaxDuration, true},
		{"inverted", 10, 5, true},
		{"longer than a window", 0, sim.SampleWindow + 1, false},
		{"whole year", 0, MaxDuration, false},
		{"negative start", -1, 5, false},
		{"end above max", 0, MaxDuration + 1, false},
		{"huge", 0, 9000000000000000000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := newTestTrace()
			tr.UsageRecords[0].Start, tr.UsageRecords[0].End = c.start, c.end
			if err := WriteDir(tr, dir); err != nil {
				t.Fatal(err)
			}
			_, err := ReadDir(dir)
			if c.ok != (err == nil) {
				t.Fatalf("window [%d, %d): ReadDir error %v", c.start, c.end, err)
			}
		})
	}
}

func TestReadDirCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(newTestTrace(), dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("expected error for corrupt meta")
	}
}

// corruptRowCSV and badEnumCSV are collection_events tables ReadDir must
// reject: a non-numeric time, and an unknown collection type.
const (
	corruptRowCSV = "time,collection_id,type,collection_type,priority,tier,user,parent_collection_id,alloc_collection_id,scheduler,vertical_scaling\nnot-a-number,1,SUBMIT,job,0,free,u,0,0,default,none\n"
	badEnumCSV    = "time,collection_id,type,collection_type,priority,tier,user,parent_collection_id,alloc_collection_id,scheduler,vertical_scaling\n1,1,SUBMIT,weird,0,free,u,0,0,default,none\n"
)

func TestReadDirCorruptRow(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(newTestTrace(), dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, collectionEventsFile), []byte(corruptRowCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("expected error for corrupt row")
	}
}

func TestReadDirBadEnums(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDir(newTestTrace(), dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, collectionEventsFile), []byte(badEnumCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("expected error for bad collection type")
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseTier("nope"); err == nil {
		t.Fatal("parseTier")
	}
	if _, err := parseScheduler("nope"); err == nil {
		t.Fatal("parseScheduler")
	}
	if _, err := parseScaling("nope"); err == nil {
		t.Fatal("parseScaling")
	}
	if _, err := parseMachineEventType("nope"); err == nil {
		t.Fatal("parseMachineEventType")
	}
	for _, tier := range Tiers() {
		got, err := parseTier(tier.String())
		if err != nil || got != tier {
			t.Fatalf("tier round trip %v", tier)
		}
	}
}

// TestDirSinkStreamsIdenticalToWriteDir pins the shared-encoder property:
// streaming rows through a DirSink produces byte-identical files to
// post-hoc WriteDir of the same trace, however the usage table is cut
// into blocks (WriteDir sends it as one), and the pipeline's Flush
// delivers every buffered tail before Close.
func TestDirSinkStreamsIdenticalToWriteDir(t *testing.T) {
	tr := newTestTrace()
	tr.Usage(usageBlock(1, 4)) // more usage rows to cut into blocks
	postDir, streamDir := t.TempDir(), t.TempDir()
	if err := WriteDir(tr, postDir); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDirSink(streamDir, tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	s := FanOut(&CountingSink{}, ds)
	for _, ev := range tr.MachineEvents {
		s.MachineEvent(ev)
	}
	for _, ev := range tr.CollectionEvents {
		s.CollectionEvent(ev)
	}
	for _, ev := range tr.InstanceEvents {
		s.InstanceEvent(ev)
	}
	for i := range tr.UsageRecords {
		s.Usage(tr.UsageRecords[i : i+1])
		s.Usage(nil)
	}
	Flush(s)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{metaFile, collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile} {
		want, err := os.ReadFile(filepath.Join(postDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s differs between streamed and post-hoc write", name)
		}
	}
}

// TestDirSinkMidRunFlushAndCloseIdempotent exercises Flush mid-stream
// (rows written so far become visible on disk) and double Close.
func TestDirSinkMidRunFlushAndCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirSink(dir, Meta{Cell: "x"})
	if err != nil {
		t.Fatal(err)
	}
	ds.MachineEvent(MachineEvent{Time: 0, Machine: 1, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}, Platform: "P0"})
	ds.Flush()
	mid, err := os.ReadFile(filepath.Join(dir, machineEventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(mid), "\n"); lines != 2 { // header + 1 row
		t.Fatalf("mid-run flush left %d lines visible, want 2", lines)
	}
	ds.MachineEvent(MachineEvent{Time: 1, Machine: 2, Type: MachineAdd, Capacity: Resources{CPU: 1, Mem: 1}, Platform: "P0"})
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Rows after Close are dropped, not panicking or resurrecting files.
	ds.MachineEvent(MachineEvent{Time: 2, Machine: 3, Type: MachineAdd})
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MachineEvents) != 2 {
		t.Fatalf("machine events %d, want 2", len(got.MachineEvents))
	}
	if ds.Err() != nil {
		t.Fatalf("unexpected sink error: %v", ds.Err())
	}
}
