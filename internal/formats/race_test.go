//go:build race

package formats

// raceEnabled reports a race-detector build. The detector makes
// sync.Pool drop a random quarter of what is put back, so the pooled
// allocation counts pinned here hold only without it.
const raceEnabled = true
