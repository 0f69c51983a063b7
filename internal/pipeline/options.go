package pipeline

// Option tunes a switch at construction time — the functional-options
// configuration surface. The config they set is unexported, so options
// are the only way to deviate from NewSwitch's defaults; it is frozen
// into the switch and never mutated afterwards, which is what makes the
// dataplane safe to drive from many goroutines.
type Option func(*config)

// config is what the Options passed to NewSwitch set. Every other
// figure of the switch model is a constant (see baseLatency).
type config struct {
	// Workers is the number of dataplane shards ProcessBatch fans out
	// across; 0 or 1 selects the sequential single-shard dataplane.
	Workers int
	// DropOnIngressPort suppresses forwarding a packet back out its
	// ingress port (standard switch behaviour; Algorithm 1's "other than
	// the ingress port"). On by default.
	DropOnIngressPort bool
}

// WithWorkers sets the number of worker shards the dataplane is split
// into. Each shard owns a private flow-cache partition and stats block;
// ProcessBatch fans packets out across the shards, keying flows to
// shards by hash so a stream's continuation packets always meet its
// cached decision. n <= 1 selects the single-shard (sequential)
// dataplane, whose results are bit-identical to the historical
// single-threaded switch.
func WithWorkers(n int) Option {
	return func(c *config) { c.Workers = n }
}

// WithIngressDrop controls suppression of forwarding a packet back out
// its ingress port (Algorithm 1's "other than the ingress port"; on by
// default).
func WithIngressDrop(drop bool) Option {
	return func(c *config) { c.DropOnIngressPort = drop }
}
