package pipeline

import "time"

// Option tunes a switch at construction time — the functional-options
// configuration surface. Options are the only supported way to deviate
// from DefaultConfig: the resulting Config is frozen into the switch
// and never mutated afterwards, which is what makes the dataplane safe
// to drive from many goroutines.
type Option func(*Config)

// WithBaseLatency sets the one-pass pipeline transit time.
func WithBaseLatency(d time.Duration) Option {
	return func(c *Config) { c.BaseLatency = d }
}

// WithRecirculationLatency sets the added cost of one recirculation
// pass (§VI-B).
func WithRecirculationLatency(d time.Duration) Option {
	return func(c *Config) { c.RecirculationLatency = d }
}

// WithFlowCache sizes the stream-subscription cache (§VII-B): size is
// the total flow capacity (split evenly across worker shards) and ttl
// expires idle streams. Zero values keep the defaults (65536 flows,
// 30s).
func WithFlowCache(size int, ttl time.Duration) Option {
	return func(c *Config) {
		c.FlowCacheSize = size
		c.FlowTTL = ttl
	}
}

// WithWorkers sets the number of worker shards the dataplane is split
// into. Each shard owns a private flow-cache partition and stats block;
// ProcessBatch fans packets out across the shards, keying flows to
// shards by hash so a stream's continuation packets always meet its
// cached decision. n <= 1 selects the single-shard (sequential)
// dataplane, whose results are bit-identical to the historical
// single-threaded switch.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithIngressDrop controls suppression of forwarding a packet back out
// its ingress port (Algorithm 1's "other than the ingress port"; on by
// default).
func WithIngressDrop(drop bool) Option {
	return func(c *Config) { c.DropOnIngressPort = drop }
}

// normalize fills the documented "0 uses the default" fields, returning
// a config that is safe to freeze into a switch. Latencies are left
// as-is: zero means zero.
func (c Config) normalize() Config {
	if c.FlowCacheSize <= 0 {
		c.FlowCacheSize = 65536
	}
	if c.FlowTTL <= 0 {
		c.FlowTTL = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}
