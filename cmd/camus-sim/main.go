// Command camus-sim deploys subscriptions over a fat-tree network and
// replays a synthetic ITCH feed through the simulated switches,
// reporting deliveries, per-layer traffic, and per-layer table state —
// a command-line version of the paper's Mininet experiments.
//
// Usage:
//
//	camus-sim [-k 4] [-filters 128] [-policy tr|mr] [-alpha 10]
//	          [-packets 5000] [-seed 1]
//
// With -churn N the command instead starts from an empty network and
// drives N live subscribe/unsubscribe events through the ctlplane
// service (per-switch incremental deltas, coalescing, retry/backoff)
// while feed traffic flows, then reports sustained updates/sec and the
// update-latency percentiles before replaying the feed on the converged
// network:
//
//	camus-sim -churn 1000 [-churn-rate 2000]
//
// With -serve the command instead starts an in-process camusd daemon
// and soaks its HTTP API with a multi-tenant churn workload (see
// runServe) — the `make serve-soak` CI gate:
//
//	camus-sim -serve [-tenants 1000] [-churn 1000] [-validate-every 16]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"camus/camus"
	"camus/internal/controller"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

func main() {
	k := flag.Int("k", 4, "fat-tree arity (k=4 is the paper's 20-switch instance)")
	nFilters := flag.Int("filters", 128, "number of synthetic subscriptions")
	policyName := flag.String("policy", "tr", "routing policy: tr (traffic) or mr (memory)")
	alpha := flag.Int64("alpha", 0, "discretization unit α (0 = exact)")
	packets := flag.Int("packets", 5000, "feed packets to publish")
	seed := flag.Int64("seed", 1, "workload seed")
	churnEvents := flag.Int("churn", 0, "live-churn mode: number of subscribe/unsubscribe events (0 = static deploy)")
	churnPool := flag.Int("churn-pool", 64, "distinct filters in the churn pool (Zipf popularity)")
	covering := flag.Bool("covering", false, "enable subsumption covering in the control plane and generate a covering-heavy churn pool (refinement chains)")
	serve := flag.Bool("serve", false, "serve-soak mode: start an in-process camusd and churn tenants against its HTTP API")
	serveAddr := flag.String("serve-addr", "127.0.0.1:0", "daemon listen address for -serve")
	serveLog := flag.String("serve-log", "", "event log path for -serve (empty = throwaway temp file)")
	serveWorkers := flag.Int("serve-workers", 8, "concurrent HTTP workers for -serve")
	tenants := flag.Int("tenants", 1000, "simulated tenant population for -serve")
	validateEvery := flag.Int("validate-every", 16, "translation-validate every Nth batch per switch in -serve (0 = off)")
	flag.Parse()

	var policy routing.Policy
	switch *policyName {
	case "tr":
		policy = routing.TrafficReduction
	case "mr":
		policy = routing.MemoryReduction
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}

	if *serve {
		events := *churnEvents
		if events == 0 {
			events = 1000
		}
		runServe(serveConfig{
			k:             *k,
			policy:        camus.DeployOptions{Policy: policy, Alpha: *alpha},
			tenants:       *tenants,
			events:        events,
			pool:          *churnPool,
			validateEvery: *validateEvery,
			workers:       *serveWorkers,
			addr:          *serveAddr,
			logPath:       *serveLog,
			seed:          *seed,
			covering:      *covering,
		})
		return
	}

	net, err := topology.FatTree(*k)
	check(err)
	fmt.Printf("topology: k=%d fat tree — %d switches, %d hosts\n",
		*k, len(net.Switches), len(net.Hosts))

	subs := make([][]subscription.Expr, len(net.Hosts))
	if *churnEvents == 0 {
		exprs, err := workload.Siena(workload.SienaConfig{
			Spec: formats.ITCH, Filters: *nFilters,
			MinPredicates: 2, MaxPredicates: 3, Seed: *seed,
		})
		check(err)
		subs = workload.SpreadOverHosts(exprs, len(net.Hosts))
	}

	d, err := controller.Deploy(net, formats.ITCH, subs, controller.Options{
		Routing: routing.Options{Policy: policy, Alpha: *alpha},
	})
	check(err)
	total, byLayer := d.CompileTime()
	deployed := 0
	for _, hs := range subs {
		deployed += len(hs)
	}
	fmt.Printf("deployed %d filters with policy %s α=%d in %s (ToR %s, Agg %s, Core %s)\n",
		deployed, policy, *alpha, total.Round(1000),
		byLayer[topology.ToR].Round(1000), byLayer[topology.Agg].Round(1000),
		byLayer[topology.Core].Round(1000))
	layers := d.LayerEntries()
	fmt.Printf("table entries: ToR=%d Agg=%d Core=%d\n",
		layers[topology.ToR], layers[topology.Agg], layers[topology.Core])

	sim, err := netsim.New(d)
	check(err)
	if *churnEvents > 0 {
		runChurn(sim, net, routing.Options{Policy: policy, Alpha: *alpha},
			*churnEvents, *churnPool, *seed, *covering)
	}
	feed := workload.ITCHFeed(workload.ITCHFeedConfig{
		Packets: *packets, BatchZipf: true, InterestFraction: 0.05, Seed: *seed,
	})
	deliveries, messages := 0, 0
	m := spec.NewMessage(formats.ITCH)
	for i, pkt := range feed {
		msgs := make([]*spec.Message, len(pkt.Orders))
		for j, o := range pkt.Orders {
			mm := m.Clone()
			o.FillMessage(mm)
			msgs[j] = mm
		}
		out := sim.Publish(i%len(net.Hosts), msgs, 64*len(msgs))
		deliveries += len(out)
		for _, dl := range out {
			messages += len(dl.Msgs)
		}
	}
	fmt.Printf("\npublished %d packets → %d host deliveries (%d messages)\n",
		len(feed), deliveries, messages)
	fmt.Printf("traffic: ToR=%d Agg=%d Core=%d packets; dropped(no match)=%d loops=%d\n",
		sim.Traffic().LinkPackets[topology.ToR], sim.Traffic().LinkPackets[topology.Agg],
		sim.Traffic().CorePackets, sim.Traffic().Dropped, sim.Traffic().Looped)
}

// runChurn drives a live subscription-churn session against the running
// simulation and prints the control-plane telemetry.
func runChurn(sim *netsim.Sim, net *topology.Network, ropts routing.Options, events, pool int, seed int64, covering bool) {
	opts := []camus.ControlPlaneOption{
		camus.WithPolicy(ropts.Policy, ropts.Alpha),
		camus.WithInstallers(sim.Installers()...),
		camus.WithSeed(seed),
	}
	if covering {
		opts = append(opts, camus.WithCovering())
	}
	svc, err := camus.NewControlPlane(net, formats.ITCH, opts...)
	check(err)
	defer svc.Close()
	evs, err := workload.Churn(workload.ChurnConfig{
		Spec: formats.ITCH, Hosts: len(net.Hosts),
		Events: events, PoolSize: pool, CoverHeavy: covering, Seed: seed,
	})
	check(err)
	live := make(map[int]int)
	start := time.Now()
	for _, ev := range evs {
		if ev.Add {
			_, ids, err := svc.Subscribe(ev.Host, []subscription.Expr{ev.Filter})
			check(err)
			live[ev.Key] = ids[0]
		} else {
			_, err := svc.Unsubscribe(ev.Host, []int{live[ev.Key]})
			check(err)
			delete(live, ev.Key)
		}
	}
	svc.Quiesce()
	elapsed := time.Since(start)
	snap := svc.Stats()
	fmt.Printf("churn: %d events in %s (%.0f updates/sec), %d live filters\n",
		snap.Events, elapsed.Round(time.Millisecond),
		float64(events)/elapsed.Seconds(), len(live))
	fmt.Printf("  batches=%d (coalesced) entries +%d -%d =%d retries=%d fallbacks=%d failures=%d\n",
		snap.Batches, snap.Installs, snap.Deletes, snap.Keeps,
		snap.Retries, snap.Fallbacks, snap.Failures)
	if snap.Covering {
		fmt.Printf("  covering: %d entries carry %d covered filters (%.0f%% of table state elided)\n",
			snap.CoverEntries, snap.CoverObligations, snap.CoverSavingsRatio*100)
		fmt.Printf("  covering totals: %d installs elided, %d roots captured, %d children promoted\n",
			snap.CoveredAdds, snap.CoverCaptures, snap.CoverPromotions)
	}
	fmt.Printf("  update latency: %s\n", snap.Latency)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "camus-sim: %v\n", err)
		os.Exit(1)
	}
}
