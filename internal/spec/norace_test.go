//go:build !race

package spec

const raceEnabled = false
