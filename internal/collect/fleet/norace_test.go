//go:build !race

package fleet

// raceEnabled gates allocation measurements, which the race detector's
// instrumentation distorts.
const raceEnabled = false
