package netsim

import (
	"sync"
	"testing"
	"time"

	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// TestCoveringChurn drives the covering-heavy refinement-chain
// workload through a control plane running WithCovering. runChurnMode's
// final delivery comparison — converged covering tables vs. a fresh
// full-installation batch deploy of the surviving subscriptions — is
// the covering == full certification on the dataplane.
func TestCoveringChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	snap := runChurnMode(t, 400, 83, true, nil, nil, ctlplane.WithCovering())
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean covering churn: %+v", snap)
	}
	if !snap.Covering {
		t.Error("snapshot does not report covering mode")
	}
	if snap.CoverObligations == 0 {
		t.Error("covering-heavy churn produced no covered obligations")
	}
	t.Logf("covering churn: %d events, %d entries + %d covered (%.0f%% elided)",
		snap.Events, snap.CoverEntries, snap.CoverObligations, snap.CoverSavingsRatio*100)
}

// TestCoveringChurnNetValidated is the acceptance run for covering
// under churn: the 1000-event covering-heavy workload with the
// network-wide delivery verifier always-on at every quiescent point.
// Every certification runs against the covering-reduced programs and
// the full subscription ground truth, so zero violations means the
// covering tables preserve every (filter, host) delivery cut
// throughout the churn — not just at convergence.
func TestCoveringChurnNetValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	net := topology.MustFatTree(4)
	snap := runChurnMode(t, 1000, 91, true, nil, nil,
		ctlplane.WithCovering(),
		ctlplane.WithNetValidator(ctlplane.NetcheckValidator(net, itchSpec), 1))
	if snap.Applied != snap.Events || snap.Failures != 0 {
		t.Errorf("unclean covering net-validated churn: %+v", snap)
	}
	if snap.NetValidations == 0 {
		t.Error("always-on net validator never ran")
	}
	if snap.NetValidationFailures != 0 {
		t.Errorf("%d delivery-invariant violations under covering churn", snap.NetValidationFailures)
	}
	if snap.CoverObligations == 0 {
		t.Error("certified churn run ended with no covered obligations")
	}
	t.Logf("covering net-validated churn: %d events, %d certifications, 0 violations; %d entries + %d covered",
		snap.Events, snap.NetValidations, snap.CoverEntries, snap.CoverObligations)
}

// TestUncoverEpochConsistency is the no-gap golden for uncovering:
// host 0 holds a broad GOOGL filter covering a narrow refinement, so
// the narrow filter has no table entries of its own. Unsubscribing the
// broad (covering) filter must re-install the narrow one in the same
// apply batch per switch — concurrent publishers of packets matching
// BOTH filters must see every single publication delivered to host 0,
// with no empty delivery set (a lost packet would mean a window where
// the covering entry was gone before the promotion landed) and no
// spurious host.
func TestUncoverEpochConsistency(t *testing.T) {
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
	svc, err := ctlplane.New(net, itchSpec,
		ctlplane.WithRouting(ropts),
		ctlplane.WithInstallers(sim.Installers()...),
		ctlplane.WithCovering())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if _, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL and price > 500")}); err != nil {
		t.Fatal(err)
	}
	_, broadIDs, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	snap := svc.Stats()
	if snap.CoverObligations == 0 {
		t.Fatalf("narrow filter not covered before the uncovering: %+v", snap)
	}
	// Sanity on both epochs' semantics before racing the swap.
	if ds := deliverySet(sim.Publish(12, []*spec.Message{msg("GOOGL", 600, 1)}, 64)); ds != "[0]" {
		t.Fatalf("pre-uncover GOOGL@600 delivered to %s, want [0]", ds)
	}
	if ds := deliverySet(sim.Publish(12, []*spec.Message{msg("GOOGL", 100, 1)}, 64)); ds != "[0]" {
		t.Fatalf("pre-uncover GOOGL@100 delivered to %s, want [0]", ds)
	}

	// Publishers race the uncovering with packets matching BOTH the
	// broad and the narrow filter: delivery to host 0 must never blink.
	var mu sync.Mutex
	var sets []string
	var count int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Results
			for {
				select {
				case <-stop:
					return
				default:
				}
				pubs := make([]Publication, 16)
				for i := range pubs {
					pubs[i] = Publication{Host: 12, Msgs: []*spec.Message{msg("GOOGL", 600, 1)}, Bytes: 64}
				}
				out := sim.PublishBatchInto(&res, pubs)
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
	if _, err := svc.Unsubscribe(0, broadIDs); err != nil {
		t.Fatal(err)
	}
	svc.Quiesce()
	mu.Lock()
	atSwap := count
	mu.Unlock()
	waitFor(atSwap + 400)
	close(stop)
	wg.Wait()

	for i, set := range sets {
		if set != "[0]" {
			t.Fatalf("publication %d: delivery set %s across the uncovering, want [0] always (a gap or spurious host)", i, set)
		}
	}
	t.Logf("uncovering raced by %d publications, zero lost, zero spurious", len(sets))

	// Steady state: the promoted narrow entry delivers its packets...
	if ds := deliverySet(sim.Publish(12, []*spec.Message{msg("GOOGL", 600, 1)}, 64)); ds != "[0]" {
		t.Fatalf("post-uncover GOOGL@600 delivered to %s, want [0]", ds)
	}
	// ... and nothing else: no stale covering entry survives.
	if ds := deliverySet(sim.Publish(12, []*spec.Message{msg("GOOGL", 100, 1)}, 64)); ds != "[]" {
		t.Fatalf("post-uncover GOOGL@100 delivered to %s, want [] (stale cover entry)", ds)
	}
	snap = svc.Stats()
	if snap.CoverObligations != 0 {
		t.Errorf("obligations after uncovering = %d, want 0", snap.CoverObligations)
	}
}
