package trace

// Test fixtures shared with the external trace_test package.
var (
	NewTestTrace  = newTestTrace
	CorruptRowCSV = corruptRowCSV
	BadEnumCSV    = badEnumCSV

	// ValidateOracle is the walker the streaming Validator is checked
	// against; ViolationSet and ReplayOneRecordBlocks are the comparison
	// helpers of that check.
	ValidateOracle        = validateOracle
	ViolationSet          = violationSet
	ReplayOneRecordBlocks = replayOneRecordBlocks
)

// TableFiles names the files WriteDir writes, meta.json first.
var TableFiles = []string{metaFile, collectionEventsFile, instanceEventsFile, usageFile, machineEventsFile}
