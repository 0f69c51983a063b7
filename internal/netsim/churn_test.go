package netsim

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

// TestHotSwapEpochConsistency hot-swaps a ToR's program mid-batch and
// checks every in-flight packet sees exactly one epoch: host 0 and
// host 1 share a ToR, the old program delivers GOOGL to host 0, the new
// one to host 1, and no delivery set may mix (both hosts) or drop
// (neither) — the atomicity pipeline.Switch.Install promises.
func TestHotSwapEpochConsistency(t *testing.T) {
	net := topology.MustFatTree(4)
	tor0, _ := net.Access(0)
	if tor1, _ := net.Access(1); tor1 != tor0 {
		t.Fatalf("hosts 0 and 1 on different ToRs (%d, %d)", tor0, tor1)
	}
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	oldSubs := make([][]subscription.Expr, len(net.Hosts))
	oldSubs[0] = []subscription.Expr{filter(t, "stock == GOOGL")}
	newSubs := make([][]subscription.Expr, len(net.Hosts))
	newSubs[1] = []subscription.Expr{filter(t, "stock == GOOGL")}

	d, err := controller.Deploy(net, itchSpec, oldSubs, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := controller.Deploy(net, itchSpec, newSubs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Moving the subscription between two hosts on one ToR changes only
	// that ToR's program — upper layers route to the same subtree.
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}

	// Publishers run until both epochs have been observed; the install
	// is gated on a minimum pre-swap delivery count so neither side of
	// the swap can be missed, regardless of scheduling.
	var mu sync.Mutex
	var sets []string
	var count int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pubs := make([]Publication, 16)
				for i := range pubs {
					pubs[i] = Publication{Host: 12, Msgs: []*spec.Message{msg("GOOGL", 10, 1)}, Bytes: 64}
				}
				out := sim.PublishBatch(pubs)
				mu.Lock()
				for _, ds := range out {
					sets = append(sets, deliverySet(ds))
				}
				count = int64(len(sets))
				mu.Unlock()
			}
		}()
	}
	waitFor := func(n int64) {
		for {
			mu.Lock()
			c := count
			mu.Unlock()
			if c >= n {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	waitFor(200)
	if err := sim.Switches[tor0].Install(d2.Programs[tor0]); err != nil {
		t.Errorf("Install: %v", err)
	}
	mu.Lock()
	atSwap := count
	mu.Unlock()
	// Everything published from here on sees the new epoch; wait for a
	// comfortable margin past the swap plus any in-flight batches.
	waitFor(atSwap + 400)
	close(stop)
	wg.Wait()

	oldN, newN := 0, 0
	for i, set := range sets {
		switch set {
		case "[0]":
			oldN++
		case "[1]":
			newN++
		default:
			t.Fatalf("publication %d: mixed-epoch delivery set %s", i, set)
		}
	}
	if oldN == 0 || newN == 0 {
		t.Errorf("both epochs must be observed: old=%d new=%d", oldN, newN)
	}
	t.Logf("epochs observed: old=%d new=%d", oldN, newN)
	// After the swap, steady state is the new epoch only.
	if ds := sim.Publish(12, []*spec.Message{msg("GOOGL", 10, 1)}, 64); len(ds) != 1 || ds[0].Host != 1 {
		t.Fatalf("post-swap deliveries: %+v", ds)
	}
}

func deliverySet(ds []HostDelivery) string {
	hosts := make([]int, len(ds))
	for i, d := range ds {
		hosts[i] = d.Host
	}
	sort.Ints(hosts)
	return fmt.Sprint(hosts)
}

// TestUnsubscribeKeepsStreams: an unsubscribe that leaves a switch's
// program unchanged must not cut the streams through it. Host 0's
// broad filter forwards everything its narrow one does, so dropping the
// narrow one changes no switch's diagram; a stream continuation sent
// after the unsubscribe still follows the header's cached decision.
func TestUnsubscribeKeepsStreams(t *testing.T) {
	net := topology.MustFatTree(4)
	ropts := routing.Options{Policy: routing.TrafficReduction}
	d, err := controller.Deploy(net, itchSpec, make([][]subscription.Expr, len(net.Hosts)),
		controller.Options{Routing: ropts})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ctlplane.New(net, itchSpec, ctlplane.WithRouting(ropts), ctlplane.WithInstallers(sim.Installers()...))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
		t.Fatal(err)
	}
	_, ids, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL and price > 500")})
	if err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()

	access, port := net.Access(0)
	_, in := net.Access(1)
	sw := sim.Switches[access]
	const flow = pipeline.FlowKey(0x5eed)
	delivered := func(ds []pipeline.Delivery) bool {
		return len(ds) == 1 && ds[0].Port == port
	}
	if ds := sw.Process(&pipeline.Packet{In: in, Flow: flow, Msgs: []*spec.Message{msg("GOOGL", 600, 1)}}, 0); !delivered(ds) {
		t.Fatalf("stream header delivered to %v, want port %d", ds, port)
	}
	if _, err := svc.Unsubscribe(0, ids); err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	if ds := sw.Process(&pipeline.Packet{In: in, Flow: flow}, time.Millisecond); !delivered(ds) {
		t.Errorf("stream continuation after the unsubscribe delivered to %v, want port %d", ds, port)
	}
}

// TestRegisterChurnInstalls: the register budget counts the aggregates a
// program uses, not every window its switch has ever seen. Host 0
// subscribes and unsubscribes RegisterBudget+1 distinct count() windows
// one at a time; at most one is live, so every event must apply on the
// real switches, and the last window must still fire on the ToR.
func TestRegisterChurnInstalls(t *testing.T) {
	net := topology.MustFatTree(4)
	ropts := routing.Options{Policy: routing.TrafficReduction}
	d, err := controller.Deploy(net, itchSpec, make([][]subscription.Expr, len(net.Hosts)),
		controller.Options{Routing: ropts})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ctlplane.New(net, itchSpec, ctlplane.WithRouting(ropts), ctlplane.WithInstallers(sim.Installers()...))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	wait := func(what string, ev *ctlplane.Event) {
		t.Helper()
		<-ev.Done()
		if err := ev.Err(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	access, port := net.Access(0)
	_, in := net.Access(1)
	for n := 1; n <= compiler.RegisterBudget+1; n++ {
		src := fmt.Sprintf("stock == GOOGL and count(price, %dms) > 0", n)
		ev, ids, err := svc.Subscribe(0, []subscription.Expr{filter(t, src)})
		if err != nil {
			t.Fatalf("subscribe %q: %v", src, err)
		}
		wait("subscribe "+src, ev)
		if got := svc.Program(access); got != sim.Switches[access].Program() {
			t.Fatalf("%q: ToR runs a stale program", src)
		}
		if n <= compiler.RegisterBudget {
			ev, err := svc.Unsubscribe(0, ids)
			if err != nil {
				t.Fatal(err)
			}
			wait("unsubscribe "+src, ev)
		}
	}
	// count() > 0 holds from the second message in the window on.
	sw := sim.Switches[access]
	var ds []pipeline.Delivery
	for i := 0; i < 2; i++ {
		ds = sw.Process(&pipeline.Packet{In: in, Msgs: []*spec.Message{msg("GOOGL", 1, 1)}}, time.Duration(i)*time.Microsecond)
	}
	if len(ds) != 1 || ds[0].Port != port {
		t.Errorf("last window delivered to %v, want port %d", ds, port)
	}
}

// runChurn drives a generated churn stream through a live control plane
// wired to the sim's switches while concurrently publishing traffic,
// then checks the converged network delivers exactly like a fresh batch
// deployment of the surviving subscriptions. Returns the service stats.
func runChurn(t *testing.T, events int, seed int64, validator ctlplane.Validator, extra ...ctlplane.Option) ctlplane.Snapshot {
	t.Helper()
	return runChurnMode(t, events, seed, false, validator, nil, extra...)
}

// runChurnMode is runChurn with the workload mode exposed: coverHeavy
// generates the Zipf-nested refinement-chain pool (workload.CoverChains)
// instead of independent Siena filters. The final delivery comparison
// against a fresh full-installation batch deploy doubles as the
// covering == full certification when the service runs WithCovering.
// wrap, when set, stands between the service and each switch's Install.
func runChurnMode(t *testing.T, events int, seed int64, coverHeavy bool, validator ctlplane.Validator,
	wrap func(sw int, in ctlplane.Installer) ctlplane.Installer, extra ...ctlplane.Option) ctlplane.Snapshot {
	t.Helper()
	net := topology.MustFatTree(4)
	ropts := routing.Options{Policy: routing.TrafficReduction, Alpha: 10}
	d, err := controller.Deploy(net, itchSpec, make([][]subscription.Expr, len(net.Hosts)),
		controller.Options{Routing: ropts})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	installers := sim.Installers()
	if wrap != nil {
		for sw, in := range installers {
			installers[sw] = wrap(sw, in)
		}
	}
	opts := []ctlplane.Option{
		ctlplane.WithRouting(ropts),
		ctlplane.WithInstallers(installers...),
		ctlplane.WithSeed(seed),
		ctlplane.WithValidator(validator, 0),
	}
	svc, err := ctlplane.New(net, itchSpec, append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	evs, err := workload.Churn(workload.ChurnConfig{
		Spec: itchSpec, Hosts: len(net.Hosts), Events: events,
		PoolSize: 40, CoverHeavy: coverHeavy, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Background traffic during churn: deliveries only have to be
	// self-consistent per epoch (the hot-swap test pins that down); here
	// we exercise the race surface under -race.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed + 1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			pubs := make([]Publication, 32)
			for i := range pubs {
				pubs[i] = Publication{
					Host:  r.Intn(len(net.Hosts)),
					Msgs:  []*spec.Message{msg(fmt.Sprintf("S%03d", r.Intn(100)), int64(r.Intn(1000)), 1)},
					Bytes: 64,
				}
			}
			sim.PublishBatch(pubs)
		}
	}()

	live := make(map[int]int) // churn key → ctlplane filter id
	finalSubs := make([][]subscription.Expr, len(net.Hosts))
	finalByHost := make(map[int]map[int]subscription.Expr)
	for _, ev := range evs {
		if ev.Add {
			_, ids, err := svc.Subscribe(ev.Host, []subscription.Expr{ev.Filter})
			if err != nil {
				t.Fatal(err)
			}
			live[ev.Key] = ids[0]
			if finalByHost[ev.Host] == nil {
				finalByHost[ev.Host] = make(map[int]subscription.Expr)
			}
			finalByHost[ev.Host][ids[0]] = ev.Filter
		} else {
			id := live[ev.Key]
			delete(live, ev.Key)
			if _, err := svc.Unsubscribe(ev.Host, []int{id}); err != nil {
				t.Fatal(err)
			}
			delete(finalByHost[ev.Host], id)
		}
	}
	svc.Quiesce()
	close(stop)
	wg.Wait()

	for h, byID := range finalByHost {
		ids := make([]int, 0, len(byID))
		for id := range byID {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			finalSubs[h] = append(finalSubs[h], byID[id])
		}
	}
	ref, err := controller.Deploy(net, itchSpec, finalSubs, controller.Options{Routing: ropts})
	if err != nil {
		t.Fatal(err)
	}
	refSim, err := New(ref)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed + 2))
	for trial := 0; trial < 50; trial++ {
		pub := r.Intn(len(net.Hosts))
		m := msg(fmt.Sprintf("S%03d", r.Intn(100)), int64(r.Intn(1000)), 1)
		got := deliverySet(sim.Publish(pub, []*spec.Message{m}, 64))
		want := deliverySet(refSim.Publish(pub, []*spec.Message{m}, 64))
		if got != want {
			t.Fatalf("trial %d: converged deliveries %s != batch deploy %s", trial, got, want)
		}
	}
	return svc.Stats()
}

// TestLiveChurn is the end-to-end control-plane integration: churn +
// traffic, then convergence to the batch-deploy semantics.
func TestLiveChurn(t *testing.T) {
	snap := runChurn(t, 150, 31, nil)
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean churn run: %+v", snap)
	}
	if snap.Latency.N == 0 {
		t.Error("no update latency recorded")
	}
}

// TestChurnSoak is the longer race-surface soak (make check runs it
// race-enabled; CAMUS_SOAK=1 extends it).
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	events := 400
	if os.Getenv("CAMUS_SOAK") != "" {
		events = 3000
	}
	snap := runChurn(t, events, 47, nil)
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean soak: %+v", snap)
	}
	t.Logf("soak: %d events, %d batches, +%d -%d =%d, latency %s",
		snap.Events, snap.Batches, snap.Installs, snap.Deletes, snap.Keeps, snap.Latency)
}

// installFunc adapts a function to ctlplane.Installer.
type installFunc func(*compiler.Program) error

func (f installFunc) Install(p *compiler.Program) error { return f(p) }

// TestChurnValidated is the translation-validation acceptance run: the
// full churn workload with the symbolic prover always-on as the
// post-apply validator. Every epoch every switch swaps to during 1000
// subscription events must be proved equivalent to that switch's
// surviving rule set — zero disequivalent epochs, zero skipped proofs.
// The check sits at both ends: a wrapping validator records each
// (switch, program) it proved, and a wrapping installer counts every
// program that reaches a switch without that proof. A batch that
// compiles to the program the switch already runs is neither proved
// nor installed, so proofs need not equal batches.
func TestChurnValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	net := topology.MustFatTree(4)
	prove := ctlplane.ProveValidator(net)
	type epoch struct {
		sw   int
		prog *compiler.Program
	}
	var mu sync.Mutex
	proved := make(map[epoch]bool)
	installs, unproved := 0, 0
	validator := func(sw int, prog *compiler.Program, rules []*subscription.Rule) error {
		err := prove(sw, prog, rules)
		if err == nil {
			mu.Lock()
			proved[epoch{sw, prog}] = true
			mu.Unlock()
		}
		return err
	}
	wrap := func(sw int, in ctlplane.Installer) ctlplane.Installer {
		return installFunc(func(p *compiler.Program) error {
			mu.Lock()
			installs++
			if !proved[epoch{sw, p}] {
				unproved++
			}
			mu.Unlock()
			return in.Install(p)
		})
	}
	snap := runChurnMode(t, 1000, 61, false, validator, wrap)
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean validated churn: %+v", snap)
	}
	if snap.ValidationFailures != 0 {
		t.Errorf("%d disequivalent epochs under churn", snap.ValidationFailures)
	}
	if installs == 0 || unproved != 0 {
		t.Errorf("always-on validator skipped proofs: %d of %d installed programs were never proved",
			unproved, installs)
	}
	t.Logf("validated churn: %d events, %d batches, %d proofs, %d installs, 0 disequivalent",
		snap.Events, snap.Batches, snap.Validations, installs)
}

// TestChurnNetValidated runs netcheck-under-churn: the full 1000-event
// workload with the network-wide delivery verifier always-on at every
// quiescent point. Each time the in-flight count returns to zero the
// validator symbolically re-certifies the whole fat tree — every
// surviving subscription delivered exactly once, loop-free, nothing
// spurious — against the per-switch programs the churn actually
// installed. Zero violations is the acceptance bar.
func TestChurnNetValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	net := topology.MustFatTree(4)
	snap := runChurn(t, 1000, 71, nil,
		ctlplane.WithNetValidator(ctlplane.NetcheckValidator(net, itchSpec), 1))
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean net-validated churn: %+v", snap)
	}
	if snap.NetValidations == 0 {
		t.Error("always-on net validator never ran")
	}
	if snap.NetValidationFailures != 0 {
		t.Errorf("%d delivery-invariant violations under churn", snap.NetValidationFailures)
	}
	t.Logf("net-validated churn: %d events, %d network certifications, 0 violations",
		snap.Events, snap.NetValidations)
}
