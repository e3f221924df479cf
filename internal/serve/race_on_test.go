//go:build race

package serve

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool discards a quarter of its Puts at random, so a count
// of steady-state allocations on a path that pools more than a buffer says
// nothing about the path.
const raceEnabled = true
