//go:build !race

package vpsel

const raceEnabled = false
