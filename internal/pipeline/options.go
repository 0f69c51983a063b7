package pipeline

// Option tunes a switch at construction time — the functional-options
// configuration surface. The config they set is unexported, so options
// are the only way to deviate from NewSwitch's defaults; it is frozen
// into the switch and never mutated afterwards, so packet runs read it
// without a lock.
type Option func(*config)

// config is what the Options passed to NewSwitch set. Every other
// figure of the switch model is a constant (see baseLatency).
type config struct {
	// DropOnIngressPort suppresses forwarding a packet back out its
	// ingress port (standard switch behaviour; Algorithm 1's "other than
	// the ingress port"). On by default.
	DropOnIngressPort bool
}

// WithIngressDrop controls suppression of forwarding a packet back out
// its ingress port (Algorithm 1's "other than the ingress port"; on by
// default).
func WithIngressDrop(drop bool) Option {
	return func(c *config) { c.DropOnIngressPort = drop }
}
