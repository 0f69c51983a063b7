package pipeline

// Compile shim for the leaf cache this package no longer has: referenced
// only by bench/dataplane.go:196–200,269; delete with those lines in the
// next benchmark PR. WithLeafCache sets nothing and the counters are
// never incremented.

func WithLeafCache(int) Option { return func(*config) {} }

type benchLeafCounters struct {
	LeafHits, LeafMisses, LeafFills int64
}
