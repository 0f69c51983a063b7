//go:build !race

package formats

const raceEnabled = false
