package ctlplane

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// TestValidatorRejectsBatch: a failing validator must fail the batch's
// events with ErrApplyFailed and keep the program away from the
// installer entirely.
func TestValidatorRejectsBatch(t *testing.T) {
	net := topology.MustFatTree(4)
	var calls atomic.Int64
	svc, ris := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}),
		WithValidator(func(sw int, prog *compiler.Program, rules []*subscription.Rule) error {
			calls.Add(1)
			return fmt.Errorf("%w: injected", ErrValidationFailed)
		}, 0))
	ev, _, err := svc.Subscribe(0, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	<-ev.Done()
	if !errors.Is(ev.Err(), ErrApplyFailed) {
		t.Errorf("event error = %v, want ErrApplyFailed", ev.Err())
	}
	svc.Quiesce()
	snap := svc.Stats()
	if snap.Validations == 0 || snap.ValidationFailures != snap.Validations {
		t.Errorf("validations=%d failures=%d, want all validated batches rejected",
			snap.Validations, snap.ValidationFailures)
	}
	if calls.Load() != snap.Validations {
		t.Errorf("validator called %d times, stats say %d", calls.Load(), snap.Validations)
	}
	for sw, ri := range ris {
		if ri.installs.Load() != 0 {
			t.Errorf("switch %d: %d installs reached the switch despite failed validation",
				sw, ri.installs.Load())
		}
	}
}

// TestProveValidatorCertifiesService: the real translation validator,
// always-on, must certify every epoch of a small subscribe/unsubscribe
// sequence — and the programs still install normally.
func TestProveValidatorCertifiesService(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, ris := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction, Alpha: 10}),
		WithValidator(ProveValidator(net), 0))
	ev, ids, err := svc.Subscribe(2, []subscription.Expr{
		filter(t, "stock == GOOGL and price > 50"),
		filter(t, "stock == MSFT"),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ev.Done()
	if ev.Err() != nil {
		t.Fatalf("subscribe event failed: %v", ev.Err())
	}
	ev2, err := svc.Unsubscribe(2, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	<-ev2.Done()
	if ev2.Err() != nil {
		t.Fatalf("unsubscribe event failed: %v", ev2.Err())
	}
	svc.Quiesce()
	snap := svc.Stats()
	if snap.Validations == 0 {
		t.Error("always-on validator never ran")
	}
	if snap.ValidationFailures != 0 || snap.Failures != 0 {
		t.Errorf("clean churn flagged disequivalent: %+v", snap)
	}
	if snap.Validations != snap.Batches {
		t.Errorf("always-on: validations %d != batches %d", snap.Validations, snap.Batches)
	}
	tor, _ := net.Access(2)
	if ris[tor].installs.Load() == 0 {
		t.Errorf("no install reached host 2's ToR")
	}
}

// TestValidateEverySampling: with ValidateEvery=N only a fraction of
// batches pay for a proof.
func TestValidateEverySampling(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}),
		WithValidator(ProveValidator(net), 4))
	for i := 0; i < 12; i++ {
		stock := []string{"GOOGL", "MSFT", "AAPL"}[i%3]
		ev, _, err := svc.Subscribe(i%4, []subscription.Expr{
			filter(t, fmt.Sprintf("stock == %s and price > %d", stock, i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		<-ev.Done() // serialize so coalescing can't collapse the batches
	}
	svc.Quiesce()
	snap := svc.Stats()
	if snap.Validations == 0 {
		t.Error("sampled validator never ran (first batch is always validated)")
	}
	if snap.Validations >= snap.Batches {
		t.Errorf("sampling had no effect: validations %d >= batches %d",
			snap.Validations, snap.Batches)
	}
	if snap.ValidationFailures != 0 {
		t.Errorf("clean programs flagged: %+v", snap)
	}
}
