package trace

// Test fixtures shared with the external trace_test package.
var (
	NewTestTrace  = newTestTrace
	CorruptRowCSV = corruptRowCSV
	BadEnumCSV    = badEnumCSV
)

// TableFiles names the files WriteDir writes, meta.json first.
var TableFiles = []string{metaFile, collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile}
