//go:build race

package collect

// raceEnabled gates allocation measurements, which the race detector's
// instrumentation distorts.
const raceEnabled = true
