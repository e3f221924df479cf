//go:build race

package core

// raceEnabled reports whether the race detector instruments this build.
// The stream-selection oracle runs a tenth of its targets under it: the
// detector slows the full-scan side ~10x, and what -race adds there is
// the concurrent use of MeasureTarget, not more targets.
const raceEnabled = true
