//go:build !race

package symbos

// raceEnabled gates allocation measurements, which the race detector's
// instrumentation distorts.
const raceEnabled = false
