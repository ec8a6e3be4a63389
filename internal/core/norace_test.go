//go:build !race

package core

// raceEnabled gates allocation measurements, which the race detector's
// instrumentation distorts.
const raceEnabled = false
