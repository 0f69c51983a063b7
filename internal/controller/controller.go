// Package controller implements the logically centralized Camus
// controller (paper §III, Fig. 2): it has a global view of the topology
// and all end-point subscriptions, computes the global routing policy,
// and invokes the compiler to produce each switch's configuration.
package controller

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// Options configure a deployment.
type Options struct {
	// Routing selects the policy (MR/TR) and discretization α.
	Routing routing.Options
	// Compiler options applied to every switch; LastHop is forced per
	// switch layer (stateful predicates run only at the ToR, §II).
	Compiler compiler.Options
}

// SwitchCompileStat records the per-switch dynamic compilation cost —
// the quantity Fig. 14 plots.
type SwitchCompileStat struct {
	Switch  string
	Layer   topology.Layer
	Rules   int
	Entries int
	Elapsed time.Duration
}

// Deployment is the controller's output: the computed routing policy and
// one compiled program per switch.
type Deployment struct {
	Network  *topology.Network
	Spec     *spec.Spec
	Routing  *routing.Result
	Static   *compiler.StaticPipeline
	Programs []*compiler.Program // by switch ID
	Stats    []SwitchCompileStat // by switch ID
}

// Deploy computes the routing policy for the subscriptions and compiles
// every switch. subs is indexed by host ID.
func Deploy(net *topology.Network, sp *spec.Spec, subs [][]subscription.Expr, opts Options) (*Deployment, error) {
	res, err := routing.ComputeFatTree(net, subs, opts.Routing)
	if err != nil {
		return nil, fmt.Errorf("controller: routing: %w", err)
	}
	return Compile(sp, net, res, opts.Compiler)
}

// Compile is Deploy's second half: it compiles every switch of net under
// a routing policy computed over it — as Deploy got it, or reduced
// (cover.Reduce) or otherwise rewritten by the caller first. copts apply
// to every switch; LastHop is forced per port: stateful predicates are
// evaluated only at the hop immediately before the subscriber (§II), on
// rules forwarding to host-facing ports, and transit rules (up ports,
// switch-to-switch) are erased to their stateless superset.
//
// A compile is one goroutine's work, and the per-switch compiles share
// nothing mutable (each builds its own universe and BDD), so this is the
// one place compilation fans out: min(GOMAXPROCS, switches) workers
// (DESIGN §11 has the measurement). Results land in per-switch slots,
// making the deployment independent of completion order.
func Compile(sp *spec.Spec, net *topology.Network, res *routing.Result, copts compiler.Options) (*Deployment, error) {
	static, err := compiler.GenerateStatic(sp, compiler.StaticOptions{})
	if err != nil {
		return nil, fmt.Errorf("controller: static pipeline: %w", err)
	}
	switches := net.Switches
	d := &Deployment{
		Network:  net,
		Spec:     sp,
		Routing:  res,
		Static:   static,
		Programs: make([]*compiler.Program, len(switches)),
		Stats:    make([]SwitchCompileStat, len(switches)),
	}
	compileOne := func(s *topology.Switch) error {
		copts := copts
		copts.LastHop = false
		copts.LastHopPort = s.HostFacing
		rules := res.RulesForSwitch(s.ID)
		start := time.Now()
		prog, err := compiler.Compile(sp, rules, copts)
		if err != nil {
			return fmt.Errorf("controller: compile %s: %w", s.Name, err)
		}
		d.Programs[s.ID] = prog
		d.Stats[s.ID] = SwitchCompileStat{
			Switch:  s.Name,
			Layer:   s.Layer,
			Rules:   len(rules),
			Entries: prog.TotalEntries(),
			Elapsed: time.Since(start),
		}
		return nil
	}
	var (
		next     atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(switches)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(switches) || firstErr.Load() != nil {
					return
				}
				if err := compileOne(switches[i]); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return d, nil
}

// LayerEntries sums compiled table entries per layer — the Fig. 13
// metric.
func (d *Deployment) LayerEntries() map[topology.Layer]int {
	out := make(map[topology.Layer]int)
	for _, st := range d.Stats {
		out[st.Layer] += st.Entries
	}
	return out
}

// MaxLayerEntries returns the largest per-switch entry count within each
// layer.
func (d *Deployment) MaxLayerEntries() map[topology.Layer]int {
	out := make(map[topology.Layer]int)
	for _, st := range d.Stats {
		if st.Entries > out[st.Layer] {
			out[st.Layer] = st.Entries
		}
	}
	return out
}

// CompileTime sums the per-switch dynamic compile times, total and by
// layer (Fig. 14).
func (d *Deployment) CompileTime() (total time.Duration, byLayer map[topology.Layer]time.Duration) {
	byLayer = make(map[topology.Layer]time.Duration)
	for _, st := range d.Stats {
		total += st.Elapsed
		byLayer[st.Layer] += st.Elapsed
	}
	return total, byLayer
}
