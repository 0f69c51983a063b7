package main

import (
	"encoding/hex"
	"flag"
	"fmt"

	"camus/internal/analysis/netcheck"
	"camus/internal/analysis/prove"
	"camus/internal/analysis/replay"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/routing"
	"camus/internal/routing/cover"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

// runNetcheck implements `camusc netcheck`: the network-wide delivery
// verifier. The rule file's filters become host subscriptions (assigned
// round-robin over the topology's hosts; the rules' fwd() ports are
// placement input for single-switch compilation and are ignored here —
// the routing policy computes the real ports). The deployment is then
// built exactly like the controller builds it, and every packet class
// is propagated symbolically from every ingress.
//
// -topo fattree verifies a k-ary fat tree (the paper's §IV-C data
// center placement, both MR and TR policies); -topo mstpp verifies a
// random AS-like general topology routed over the MST++ spanning tree
// (§IV-E). Fat-tree counterexamples are additionally replayed through
// netsim, filling the report's packet hex and confirmed flag.
func runNetcheck(args []string, stdout, stderr interface{ Write([]byte) (int, error) }) int {
	fs := flag.NewFlagSet("camusc netcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "message format specification file (required)")
	rulesPath := fs.String("rules", "", "subscription rules file (required)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	topo := fs.String("topo", "fattree", "topology: fattree | mstpp")
	k := fs.Int("k", 4, "fat-tree arity (fattree)")
	nodes := fs.Int("nodes", 30, "graph size (mstpp)")
	edges := fs.Int("edges", 0, "graph edge target (mstpp, 0 = 2×nodes)")
	seed := fs.Int64("seed", 1, "graph generator seed (mstpp)")
	policy := fs.String("policy", "tr", "routing policy: tr | mr (fattree)")
	alpha := fs.Int64("alpha", 0, "α-discretization unit (0 disables approximation)")
	maxPaths := fs.Int("max-paths", 0, "per-switch symbolic path budget (0 = default)")
	covering := fs.Bool("covering", false, "apply the subsumption covering reduction (internal/routing/cover) before compiling, then certify the reduced tables against the full subscription set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath == "" || *rulesPath == "" {
		fmt.Fprintln(stderr, "usage: camusc netcheck -spec <file> -rules <file> [-json] [-topo fattree|mstpp]")
		return 2
	}
	sp, rules, err := parseInputs(*specPath, *rulesPath)
	if err != nil {
		fmt.Fprintf(stderr, "camusc netcheck: %v\n", err)
		return 2
	}
	if len(rules) == 0 {
		fmt.Fprintln(stderr, "camusc netcheck: no rules")
		return 2
	}
	file := baseName(*rulesPath) + ".rules"

	var res *netcheck.Result
	var outcomes map[int]*replay.NetOutcome
	var st *cover.ReduceStats
	switch *topo {
	case "fattree":
		res, outcomes, st, err = netcheckFatTree(sp, rules, *k, *policy, *alpha, *maxPaths, *covering, stderr)
	case "mstpp":
		res, st, err = netcheckTree(sp, rules, *nodes, *edges, *seed, *alpha, *maxPaths, *covering)
	default:
		fmt.Fprintf(stderr, "camusc netcheck: unknown topology %q\n", *topo)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "camusc netcheck: %v\n", err)
		return 2
	}

	rep := res.Report(file)
	rep.Rules = len(rules)
	for i, out := range outcomes {
		if rep.Findings[i].Counterexample == nil {
			continue
		}
		rep.Findings[i].Counterexample.Packet = hex.EncodeToString(out.Wire)
		rep.Findings[i].Counterexample.Confirmed = out.Confirmed
	}
	if *jsonOut {
		fmt.Fprintln(stdout, rep.JSON())
	} else {
		fmt.Fprint(stdout, rep.String())
		if st != nil {
			fmt.Fprintf(stdout, "  covering reduction: %d → %d port entries (%d elided, %.2f× smaller)\n",
				st.Before, st.After, st.Removed(), st.Ratio())
		}
		if len(rep.Findings) == 0 {
			status := "complete"
			if res.Overflowed {
				status = "PARTIAL (budget exhausted)"
			}
			fmt.Fprintf(stdout, "  network certificate %s: %d packet classes propagated, delivery exact, loop-free\n", status, res.Classes)
		}
	}
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

// spreadRules assigns the rule filters round-robin over n hosts/nodes.
func spreadRules(rules []*subscription.Rule, n int) ([]netcheck.Subscription, [][]subscription.Expr, map[int][]subscription.Expr) {
	var subs []netcheck.Subscription
	byHost := make([][]subscription.Expr, n)
	byNode := make(map[int][]subscription.Expr)
	for i, r := range rules {
		h := i % n
		subs = append(subs, netcheck.Subscription{ID: r.ID, Host: h, Expr: r.Filter})
		byHost[h] = append(byHost[h], r.Filter)
		byNode[h] = append(byNode[h], r.Filter)
	}
	return subs, byHost, byNode
}

func netcheckFatTree(sp *spec.Spec, rules []*subscription.Rule, k int, policy string, alpha int64,
	maxPaths int, covering bool, stderr interface{ Write([]byte) (int, error) }) (*netcheck.Result, map[int]*replay.NetOutcome, *cover.ReduceStats, error) {
	net, err := topology.FatTree(k)
	if err != nil {
		return nil, nil, nil, err
	}
	pol := routing.TrafficReduction
	if policy == "mr" {
		pol = routing.MemoryReduction
	}
	subs, byHost, _ := spreadRules(rules, len(net.Hosts))
	d, st, err := fatTreeDeploy(net, sp, byHost, routing.Options{Policy: pol, Alpha: alpha}, covering)
	if err != nil {
		return nil, nil, nil, err
	}
	irs := make([]*prove.Program, len(d.Programs))
	for i, p := range d.Programs {
		if p == nil {
			continue
		}
		if irs[i], err = p.ProveIR(); err != nil {
			return nil, nil, nil, fmt.Errorf("export IR for switch %d: %w", i, err)
		}
	}
	res, err := netcheck.CheckFatTree(net, sp, irs, subs, netcheck.Options{MaxPaths: maxPaths})
	if err != nil {
		return nil, nil, nil, err
	}
	// Replay stateless witnesses through the simulated dataplane so the
	// report carries dataplane-confirmed packets.
	outcomes := make(map[int]*replay.NetOutcome)
	for i := range res.Findings {
		f := &res.Findings[i]
		if f.Cex == nil || !f.Cex.Stateless() || f.Ingress < 0 {
			continue
		}
		out, rerr := replay.ConfirmNet(d, subs, f.Cex, f.Ingress, 0)
		if rerr != nil {
			fmt.Fprintf(stderr, "camusc netcheck: replay: %v\n", rerr)
			continue
		}
		outcomes[i] = out
	}
	return res, outcomes, st, nil
}

// fatTreeDeploy builds the deployment to certify: compute routing, under
// covering elide every port entry implied by a broader filter on the same
// port (cover.Reduce — the batch equivalent of the control plane's
// subsumption forests), then compile as the controller does.
func fatTreeDeploy(net *topology.Network, sp *spec.Spec, byHost [][]subscription.Expr,
	ropts routing.Options, covering bool) (*controller.Deployment, *cover.ReduceStats, error) {
	res, err := routing.ComputeFatTree(net, byHost, ropts)
	if err != nil {
		return nil, nil, err
	}
	var st *cover.ReduceStats
	if covering {
		s := cover.Reduce(cover.NewImplier(sp, 0), res)
		st = &s
	}
	d, err := controller.Compile(sp, net, res, compiler.Options{})
	return d, st, err
}

func netcheckTree(sp *spec.Spec, rules []*subscription.Rule, nodes, edges int, seed, alpha int64,
	maxPaths int, covering bool) (*netcheck.Result, *cover.ReduceStats, error) {
	if edges <= 0 {
		edges = 2 * nodes
	}
	g := workload.ASGraph(workload.ASGraphConfig{Nodes: nodes, Edges: edges, Seed: seed})
	mst, err := topology.PrimMST(g, 0, topology.DegreeProductWeight(g))
	if err != nil {
		return nil, nil, err
	}
	_, _, byNode := spreadRules(rules, g.N)
	tr, err := routing.ComputeTree(mst, byNode, alpha)
	if err != nil {
		return nil, nil, err
	}
	var st *cover.ReduceStats
	if covering {
		s := cover.Reduce(cover.NewImplier(sp, 0), tr)
		st = &s
	}
	progs := make([]*prove.Program, g.N)
	for v := 0; v < g.N; v++ {
		prog, err := compiler.Compile(sp, tr.RulesForSwitch(v), compiler.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("compile node %d: %w", v, err)
		}
		if progs[v], err = prog.ProveIR(); err != nil {
			return nil, nil, fmt.Errorf("export IR for node %d: %w", v, err)
		}
	}
	res, err := netcheck.CheckTree(mst, sp, progs, netcheck.Subscriptions(tr), netcheck.Options{
		MaxPaths: maxPaths, Alpha: alpha,
	})
	return res, st, err
}
