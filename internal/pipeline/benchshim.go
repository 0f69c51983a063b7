package pipeline

// Compile shims for two options this package no longer has, referenced
// only by bench/dataplane.go: WithLeafCache (the deleted leaf cache) and
// WithWorkers (the deleted worker shards, which made
// pipeline.scale_ncpu_x the ratio of a NumCPU-worker run to a
// one-worker run; both runs are now the one core, so it reads about 1).
// Neither sets anything, and the leaf counters are never incremented.
// Delete them with those lines in the next benchmark change.

func WithLeafCache(int) Option { return func(*config) {} }

func WithWorkers(int) Option { return func(*config) {} }

type benchLeafCounters struct {
	LeafHits, LeafMisses, LeafFills int64
}
