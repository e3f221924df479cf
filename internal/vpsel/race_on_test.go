//go:build race

package vpsel

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool discards a quarter of its Puts at random, so a
// selection may start from an empty sampler.
const raceEnabled = true
