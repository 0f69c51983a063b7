// Command camusd is the long-running multi-tenant control-plane daemon:
// an HTTP+JSON API over the live subscription-churn service, with
// per-tenant quotas and fairness, a durable event log replayed on
// startup, and a Prometheus-text metrics surface.
//
// Usage:
//
//	camusd [-addr :8080] [-k 4] [-policy tr|mr] [-alpha 0]
//	       [-log camusd.log] [-validate-every 16] [-netcheck-every 1]
//	       [-queue 1024] [-max-subs 0] [-rate 0] [-burst 0]
//	       [-no-auto-create] [-covering] [-admission] [-seed 1]
//
// The daemon fronts a simulated fat-tree deployment (internal/netsim):
// every accepted subscription is compiled incrementally and hot-swapped
// onto the simulated switches, exactly as the library service does in
// tests. API:
//
//	PUT    /v1/tenants/{tenant}                 create/re-quota a tenant
//	POST   /v1/tenants/{tenant}/subscriptions   {"host":0,"filters":["stock == GOOGL"]}
//	DELETE /v1/tenants/{tenant}/subscriptions   {"host":0,"ids":[3]}
//	GET    /v1/tenants/{tenant}/snapshot
//	GET    /v1/stats
//	GET    /metrics
//	GET    /healthz
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"camus/camus"
	"camus/internal/formats"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	k := flag.Int("k", 4, "fat-tree arity of the simulated network")
	policyName := flag.String("policy", "tr", "routing policy: tr (traffic) or mr (memory)")
	alpha := flag.Int64("alpha", 0, "discretization unit α (0 = exact)")
	logPath := flag.String("log", "camusd.log", "durable event log path (empty = no durability)")
	validateEvery := flag.Int("validate-every", 16, "translation-validate every Nth batch per switch (0 = off)")
	netcheckEvery := flag.Int("netcheck-every", 1, "network-wide delivery certification at every Nth quiescent point (0 = off)")
	queue := flag.Int("queue", 1024, "max in-flight events before backpressure")
	maxSubs := flag.Int("max-subs", 0, "default per-tenant subscription quota (0 = unlimited)")
	rate := flag.Float64("rate", 0, "default per-tenant events/sec admission rate (0 = unlimited)")
	burst := flag.Int("burst", 0, "default per-tenant admission burst (0 = rate-derived)")
	noAutoCreate := flag.Bool("no-auto-create", false, "refuse unknown tenants instead of creating them on first use")
	covering := flag.Bool("covering", false, "subsumption-aware state reduction: install entries only for covering filters (DESIGN.md §14)")
	admission := flag.Bool("admission", false, "static fit admission: reject subscribes whose predicted entry delta would overflow a switch pipeline (DESIGN.md §15)")
	seed := flag.Int64("seed", 1, "retry-jitter seed")
	flag.Parse()

	policy := camus.TrafficReduction
	switch *policyName {
	case "tr":
	case "mr":
		policy = camus.MemoryReduction
	default:
		fmt.Fprintf(os.Stderr, "camusd: unknown policy %q\n", *policyName)
		os.Exit(2)
	}

	app, err := camus.NewAppFromSpec(formats.ITCH)
	check(err)
	net, err := camus.FatTree(*k)
	check(err)
	// The daemon starts from an empty deployment — the durable log, not
	// the binary, is the source of subscription state.
	empty := make([][]camus.Expr, len(net.Hosts))
	dep, err := app.Deploy(net, empty, camus.DeployOptions{Policy: policy, Alpha: *alpha})
	check(err)
	sim, err := camus.Simulate(dep)
	check(err)

	svcOpts := []camus.ControlPlaneOption{
		camus.WithPolicy(policy, *alpha),
		camus.WithInstallers(sim.Installers()...),
		camus.WithQueueDepth(*queue),
		camus.WithSeed(*seed),
	}
	if *validateEvery > 0 {
		svcOpts = append(svcOpts, camus.WithValidator(camus.ProveValidator(net), *validateEvery))
	}
	if *netcheckEvery > 0 {
		svcOpts = append(svcOpts,
			camus.WithNetValidator(camus.NetcheckValidator(net, formats.ITCH), *netcheckEvery))
	}
	if *covering {
		svcOpts = append(svcOpts, camus.WithCovering())
	}
	if *admission {
		svcOpts = append(svcOpts, camus.WithAdmission(camus.NewFitModel()))
	}
	tenantOpts := []camus.TenantOption{
		camus.WithDefaultQuota(camus.TenantQuota{
			MaxSubscriptions: *maxSubs, EventsPerSec: *rate, Burst: *burst,
		}),
	}
	if !*noAutoCreate {
		tenantOpts = append(tenantOpts, camus.WithAutoCreate())
	}
	daemonOpts := []camus.DaemonOption{
		camus.WithDaemonService(svcOpts...),
		camus.WithDaemonTenancy(tenantOpts...),
	}
	if *logPath != "" {
		daemonOpts = append(daemonOpts, camus.WithDaemonEventLog(*logPath))
	}

	d, err := camus.NewDaemon(net, app.Spec, daemonOpts...)
	check(err)
	fmt.Printf("camusd: k=%d fat tree — %d switches, %d hosts, policy %s α=%d\n",
		*k, len(net.Switches), len(net.Hosts), policy, *alpha)
	if *logPath != "" {
		fmt.Printf("camusd: event log %s — replayed %d records (log seq %d)\n",
			*logPath, d.Replayed(), d.Log().Seq())
	}

	bound, err := d.Start(*addr)
	check(err)
	fmt.Printf("camusd: serving on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("camusd: shutting down")
	check(d.Close())
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "camusd: %v\n", err)
		os.Exit(1)
	}
}
