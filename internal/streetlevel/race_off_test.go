//go:build !race

package streetlevel

const raceEnabled = false
