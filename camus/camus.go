// Package camus is the public API of the Camus packet-subscription
// system — an implementation of "Forwarding and Routing with Packet
// Subscriptions" (Jepsen et al., CoNEXT 2020 / ToN 2022).
//
// A packet subscription is a stateful predicate over application-defined
// packet fields that determines a forwarding decision. Camus compiles
// sets of subscriptions into match-action pipeline tables via a BDD, and
// routes on subscriptions across fat-tree or general topologies.
//
// Typical use:
//
//	app, _ := camus.NewApp("itch", specSource)
//	rules, _ := app.ParseRules(`stock == GOOGL and price > 50: fwd(1)`)
//	prog, _ := app.Compile(rules)
//	sw, _ := app.NewSwitch("tor-1", prog)
//	out := sw.Process(&camus.Packet{In: 0, Msgs: []*camus.Message{msg}}, 0)
package camus

import (
	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// Re-exported core types. The aliases make the public surface usable
// without importing internal packages.
type (
	// Spec is an application message-format specification (paper Fig. 4).
	Spec = spec.Spec
	// Message is a decoded packet presented to the pipeline.
	Message = spec.Message
	// Value is a field value.
	Value = spec.Value
	// Rule is a subscription with its forwarding directive.
	Rule = subscription.Rule
	// Expr is a filter expression.
	Expr = subscription.Expr
	// ActionSet is a merged forwarding outcome.
	ActionSet = subscription.ActionSet
	// Program is a compiled switch configuration.
	Program = compiler.Program
	// Switch is the software dataplane: one run-to-completion core that
	// many goroutines may drive at once.
	// Configure it only via SwitchOptions at NewSwitch time; read
	// counters only via its Stats() snapshot method.
	Switch = pipeline.Switch
	// StatsSnapshot is an immutable copy of a switch's counters.
	StatsSnapshot = pipeline.StatsSnapshot
	// Packet is a (possibly batched) packet traversing a switch.
	Packet = pipeline.Packet
	// FlowKey identifies a packet's stream for stream subscriptions
	// (§VII-B).
	FlowKey = pipeline.FlowKey
	// Delivery is one egress replica.
	Delivery = pipeline.Delivery
	// Results is a caller-owned output buffer for Switch.ProcessBatchInto:
	// what a call returns lives in the Results it was given and stays
	// valid until that Results is passed again. The zero value is ready;
	// use one per goroutine that batches on a shared switch.
	Results = pipeline.Results
	// Publication is one host's packet injection for Sim.PublishBatch.
	Publication = netsim.Publication
	// Network is a topology instance.
	Network = topology.Network
	// Deployment is a controller-compiled network.
	Deployment = controller.Deployment
	// Sim is the network simulator. Publish and PublishBatch share one
	// forwarding loop: a batch advances wave by wave, one pipeline batch
	// per switch per hop level. PublishBatch lays the deliveries out in
	// the Sim's own results, valid until the next PublishBatch; Publish
	// returns heap-fresh deliveries the caller may retain. Safe for
	// concurrent publishers.
	Sim = netsim.Sim
)

// Value constructors.
var (
	// IntVal builds an integer value.
	IntVal = spec.IntVal
	// StrVal builds a string value.
	StrVal = spec.StrVal
)

// BDD field-order heuristics (§V-C).
const (
	// CanonicalOrder tests @field_exact fields before the others, each
	// group in spec declaration order (the default).
	CanonicalOrder = bdd.CanonicalOrder
	// SpecOrder follows pure spec declaration order (ablation).
	SpecOrder = bdd.SpecOrder
	// ReverseSpecOrder reverses SpecOrder (worst-case ablation).
	ReverseSpecOrder = bdd.ReverseSpecOrder
)

// Routing policies (§IV-C).
const (
	// MemoryReduction minimizes switch memory; unmatched traffic climbs
	// to the core.
	MemoryReduction = routing.MemoryReduction
	// TrafficReduction minimizes traffic; switches store every remote
	// subscription.
	TrafficReduction = routing.TrafficReduction
)

// ParseSpec parses a message-format specification (the Fig. 4 DSL).
func ParseSpec(name, src string) (*Spec, error) { return spec.Parse(name, src) }

// MergeSpecs combines application specs for co-existence on one switch.
func MergeSpecs(name string, specs ...*Spec) (*Spec, error) { return spec.Merge(name, specs...) }

// FatTree builds a k-ary fat-tree topology (k=4 is the paper's
// 20-switch/16-host instance).
func FatTree(k int) (*Network, error) { return topology.FatTree(k) }

// App binds a message spec to a parser and static pipeline: everything
// that is fixed once per application (§V-A).
type App struct {
	Spec   *Spec
	Static *compiler.StaticPipeline

	parser *subscription.Parser
}

// NewApp parses the spec and generates the static pipeline.
func NewApp(name, specSrc string) (*App, error) {
	sp, err := spec.Parse(name, specSrc)
	if err != nil {
		return nil, err
	}
	return NewAppFromSpec(sp)
}

// NewAppFromSpec wraps an existing Spec (e.g. one of internal/formats').
func NewAppFromSpec(sp *Spec) (*App, error) {
	static, err := compiler.GenerateStatic(sp, compiler.StaticOptions{})
	if err != nil {
		return nil, err
	}
	return &App{Spec: sp, Static: static, parser: subscription.NewParser(sp)}, nil
}

// ParseFilter parses a bare filter expression.
func (a *App) ParseFilter(src string) (Expr, error) { return a.parser.ParseFilter(src) }

// ParseRules parses a rule file ("filter: fwd(p)" per line).
func (a *App) ParseRules(src string) ([]*Rule, error) { return a.parser.ParseRules(src) }

// CompileOption tunes compilation.
type CompileOption func(*compiler.Options)

// LastHop marks the program as host-facing: stateful predicates are
// evaluated and updated (§II).
func LastHop() CompileOption {
	return func(o *compiler.Options) { o.LastHop = true }
}

// FieldOrder overrides the BDD variable-order heuristic.
func FieldOrder(order bdd.FieldOrder) CompileOption {
	return func(o *compiler.Options) { o.BDD.Order = order }
}

// Compile runs the dynamic compilation step: rules → pipeline tables.
func (a *App) Compile(rules []*Rule, opts ...CompileOption) (*Program, error) {
	var o compiler.Options
	for _, fn := range opts {
		fn(&o)
	}
	return compiler.Compile(a.Spec, rules, o)
}

// SwitchOption tunes a switch at construction time — the only way to
// configure the dataplane. The resulting configuration is frozen into
// the switch, so no caller can reach racy mutable state.
type SwitchOption = pipeline.Option

// WithIngressDrop controls suppression of forwarding a packet back out
// its ingress port, the one switch construction option.
var WithIngressDrop = pipeline.WithIngressDrop

// NewSwitch instantiates a software switch running a compiled program:
//
//	sw, err := app.NewSwitch("tor-1", prog, camus.WithIngressDrop(false))
func (a *App) NewSwitch(id string, prog *Program, opts ...SwitchOption) (*Switch, error) {
	return pipeline.NewSwitch(id, a.Static, prog, opts...)
}

// Incremental is the dynamic-filter compiler: rules are added and
// removed one at a time and each update reports the control-plane entry
// delta (§V's incremental algorithm sketch).
type Incremental = compiler.Incremental

// IncrementalUpdate is one incremental recompilation result.
type IncrementalUpdate = compiler.Update

// NewIncremental creates an incremental compiler for the app.
func (a *App) NewIncremental(opts ...CompileOption) (*Incremental, error) {
	var o compiler.Options
	for _, fn := range opts {
		fn(&o)
	}
	return compiler.NewIncremental(a.Spec, o)
}

// NewMessage allocates an empty message for the app's spec.
func (a *App) NewMessage() *Message { return spec.NewMessage(a.Spec) }

// DeployOptions configure a network deployment.
type DeployOptions struct {
	// Policy is the routing policy (default TrafficReduction).
	Policy routing.Policy
	// Alpha is the discretization unit α (§IV-D); 0 disables.
	Alpha int64
}

// Deploy computes routing and compiles every switch of a topology for
// per-host subscriptions (the controller's job, §III).
func (a *App) Deploy(net *Network, subsByHost [][]Expr, opts DeployOptions) (*Deployment, error) {
	return controller.Deploy(net, a.Spec, subsByHost, controller.Options{
		Routing: routing.Options{Policy: opts.Policy, Alpha: opts.Alpha},
	})
}

// Simulate instantiates the network simulator over a deployment.
func Simulate(d *Deployment) (*Sim, error) { return netsim.New(d) }

// EvalRules evaluates rules against a message by brute force — the
// reference semantics, useful for testing user rule sets.
func EvalRules(rules []*Rule, m *Message) ActionSet {
	return subscription.MatchActions(rules, m, nil)
}

// Describe renders a compiled program's tables (Fig. 6 style).
func Describe(p *Program) string { return p.String() }

// Version identifies the library.
const Version = "1.0.0"
