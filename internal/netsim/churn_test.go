package netsim

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"camus/internal/controller"
	"camus/internal/ctlplane"
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

// runChurn drives a generated churn stream through a live control plane
// wired to the sim's switches while concurrently publishing traffic,
// then checks the converged network delivers exactly like a fresh batch
// deployment of the surviving subscriptions. Returns the service stats.
func runChurn(t *testing.T, events int, seed int64, validator ctlplane.Validator, extra ...ctlplane.Option) ctlplane.Snapshot {
	t.Helper()
	return runChurnMode(t, events, seed, false, validator, extra...)
}

// runChurnMode is runChurn with the workload mode exposed: coverHeavy
// generates the Zipf-nested refinement-chain pool (workload.CoverChains)
// instead of independent Siena filters. The final delivery comparison
// against a fresh full-installation batch deploy doubles as the
// covering == full certification when the service runs WithCovering.
func runChurnMode(t *testing.T, events int, seed int64, coverHeavy bool, validator ctlplane.Validator, extra ...ctlplane.Option) ctlplane.Snapshot {
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
	opts := []ctlplane.Option{
		ctlplane.WithRouting(ropts),
		ctlplane.WithInstallers(sim.Installers()...),
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

// TestChurnValidated is the translation-validation acceptance run: the
// full churn workload with the symbolic prover always-on as the
// post-apply validator. Every epoch every switch swaps to during 1000
// subscription events must be proved equivalent to that switch's
// surviving rule set — zero disequivalent epochs, zero skipped proofs.
func TestChurnValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	net := topology.MustFatTree(4)
	snap := runChurn(t, 1000, 61, ctlplane.ProveValidator(net, 0))
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean validated churn: %+v", snap)
	}
	if snap.ValidationFailures != 0 {
		t.Errorf("%d disequivalent epochs under churn", snap.ValidationFailures)
	}
	if snap.Validations != snap.Batches {
		t.Errorf("always-on validator skipped proofs: validations %d != batches %d",
			snap.Validations, snap.Batches)
	}
	t.Logf("validated churn: %d events, %d batches, %d proofs, 0 disequivalent",
		snap.Events, snap.Batches, snap.Validations)
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
		ctlplane.WithNetValidator(ctlplane.NetcheckValidator(net, itchSpec, 0), 1))
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
