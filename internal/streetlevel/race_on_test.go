//go:build race

package streetlevel

// raceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool discards a quarter of its Puts at random, so a warm
// Geolocate may start from an empty scratch.
const raceEnabled = true
