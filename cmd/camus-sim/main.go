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
// service (per-switch incremental deltas, coalescing, retry/backoff),
// reports sustained updates/sec and the update-latency percentiles,
// then replays the feed on the converged network:
//
//	camus-sim -churn 1000 [-churn-pool 64] [-covering]
//
// With -serve the command instead starts an in-process camusd daemon
// and soaks its HTTP API with a multi-tenant churn workload — the
// `make serve-soak` CI gate:
//
//	camus-sim -serve [-tenants 1000] [-churn 1000] [-validate-every 16]
//
// Both modes are configurations of the load driver (internal/workload/
// drive) and exit 1 when its verdict fails: a batch that failed to
// apply or validate, a failed network validation, or an unhealthy
// daemon.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/topology"
	"camus/internal/workload"
	"camus/internal/workload/drive"
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

	ropts := routing.Options{Policy: policy, Alpha: *alpha}
	var net *topology.Network
	var sim *netsim.Sim
	if *serve || *churnEvents > 0 {
		cfg := drive.Config{K: *k, Routing: ropts, Workers: 1, Churn: workload.ChurnConfig{
			Events: *churnEvents, PoolSize: *churnPool, CoverHeavy: *covering, Seed: *seed,
		}}
		if *covering {
			cfg.Service = []ctlplane.Option{ctlplane.WithCovering()}
		}
		if *serve {
			cfg.HTTP, cfg.Churn.Tenants, cfg.ValidateEvery = true, *tenants, *validateEvery
			cfg.Workers, cfg.Addr, cfg.LogPath = *serveWorkers, *serveAddr, *serveLog
		}
		d := runChurn(cfg)
		if *serve {
			return
		}
		net, sim = d.Net, d.Sim
	} else {
		var err error
		net, err = topology.FatTree(*k)
		check(err)
		fmt.Printf("topology: k=%d fat tree — %d switches, %d hosts\n",
			*k, len(net.Switches), len(net.Hosts))
		exprs, err := workload.Siena(workload.SienaConfig{
			Spec: formats.ITCH, Filters: *nFilters,
			MinPredicates: 2, MaxPredicates: 3, Seed: *seed,
		})
		check(err)
		subs := workload.SpreadOverHosts(exprs, len(net.Hosts))
		d, err := controller.Deploy(net, formats.ITCH, subs, controller.Options{Routing: ropts})
		check(err)
		total, byLayer := d.CompileTime()
		fmt.Printf("deployed %d filters with policy %s α=%d in %s (ToR %s, Agg %s, Core %s)\n",
			len(exprs), policy, *alpha, total.Round(1000),
			byLayer[topology.ToR].Round(1000), byLayer[topology.Agg].Round(1000),
			byLayer[topology.Core].Round(1000))
		layers := d.LayerEntries()
		fmt.Printf("table entries: ToR=%d Agg=%d Core=%d\n",
			layers[topology.ToR], layers[topology.Agg], layers[topology.Core])
		sim, err = netsim.New(d)
		check(err)
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

// runChurn replays a churn stream through the load driver — the service
// with -churn, the daemon's HTTP API with -serve — and prints the report.
// It exits 1 unless the driver's verdict passes, and returns the driver,
// whose Sim holds the converged network.
func runChurn(cfg drive.Config) *drive.Driver {
	mode := "churn"
	if cfg.HTTP {
		mode = "serve-soak"
	}
	d, err := drive.New(cfg)
	if errors.Is(err, drive.ErrWorkers) {
		fmt.Fprintf(os.Stderr, "camus-sim: -serve-workers %d: must be at least 1\n", cfg.Workers)
		flag.Usage()
		os.Exit(2)
	}
	check(err)
	res, err := d.Run()
	check(errors.Join(err, d.Close()))
	snap := res.Snapshot
	fmt.Printf("%s: %d events on a k=%d fat tree in %s (%.0f updates/sec), %d live filters\n",
		mode, res.Latency.N(), cfg.K, res.Elapsed.Round(time.Millisecond), res.UpdatesPerSec(),
		snap.Subscribes-snap.Unsubscribes)
	fmt.Printf("  batches=%d (coalesced) entries +%d -%d =%d retries=%d fallbacks=%d failures=%d validations=%d\n",
		snap.Batches, snap.Installs, snap.Deletes, snap.Keeps,
		snap.Retries, snap.Fallbacks, snap.Failures, snap.Validations)
	if snap.Covering {
		fmt.Printf("  covering: %d entries carry %d covered filters (%.0f%% of table state elided)\n",
			snap.CoverEntries, snap.CoverObligations, snap.CoverSavingsRatio*100)
		fmt.Printf("  covering totals: %d installs elided, %d roots captured, %d children promoted\n",
			snap.CoveredAdds, snap.CoverCaptures, snap.CoverPromotions)
	}
	fmt.Printf("  update latency: %s\n", snap.Latency)
	if cfg.HTTP {
		fmt.Printf("  camusd on %s: %d tenants (%d workers), log %d records, %d bytes\n", d.URL,
			d.Daemon.Tenants().TenantCount(), cfg.Workers, d.Daemon.Log().Seq(), d.Daemon.Log().Size())
	}
	verdict := res.Verdict()
	// The end-state cover gauges can read zero (the final live set may
	// hold no implication pair), but the lifetime totals cannot.
	if verdict == nil && snap.Covering && snap.CoveredAdds == 0 {
		verdict = errors.New("covering enabled but no install was ever elided")
	}
	if verdict != nil {
		fmt.Fprintf(os.Stderr, "%s: FAILED — %v\n", mode, verdict)
		os.Exit(1)
	}
	fmt.Printf("%s: PASS\n", mode)
	return d
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "camus-sim: %v\n", err)
		os.Exit(1)
	}
}
