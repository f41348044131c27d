//go:build race

package main

// raceEnabled marks a -race build. The race runtime's CPU samples carry
// no Go callers, so the profile fold cannot charge them to a layer.
const raceEnabled = true
