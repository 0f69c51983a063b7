package ctlplane

import (
	"errors"
	"fmt"
	"testing"

	"camus/internal/analysis/fitcheck"
	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// tightBudget is a pipeline model small enough that a handful of
// filters exhausts the access switch's headroom, so admission paths
// are exercised with a few dozen subscribes.
func tightBudget() fitcheck.Budget {
	return fitcheck.Budget{
		Stages:          8,
		StageSRAMBytes:  512,
		StageTCAMBytes:  1024,
		StageKeyBits:    512,
		MaxTableSplit:   1,
		MulticastGroups: 65536,
		Registers:       4,
		RecircPasses:    0,
	}
}

// netState captures everything an admission reject must leave
// untouched: the filter registry, the per-switch live program pointers
// (identity — no install may even re-point an identical program), and
// the covering forests.
func netState(svc *Service, net *topology.Network) string {
	progs := make([]*compiler.Program, len(net.Switches))
	for i := range net.Switches {
		progs[i] = svc.Program(i)
	}
	entries, obligations := svc.rec.CoverStats()
	return fmt.Sprintf("filters=%v progs=%p... %v cover=%d/%d",
		svc.rec.HostFilters(), progs[0], progs, entries, obligations)
}

// netValidate runs the full symbolic delivery verifier over the
// service's current cut.
func netValidate(t *testing.T, svc *Service, net *topology.Network) {
	t.Helper()
	progs := make([]*compiler.Program, len(net.Switches))
	for i := range net.Switches {
		progs[i] = svc.Program(i)
	}
	v := NetcheckValidator(net, itchSpec)
	if err := v(progs, svc.rec.HostFilters()); err != nil {
		t.Fatalf("netcheck validation failed: %v", err)
	}
}

// TestAdmissionRejectLeavesStateUntouched is the acceptance churn run:
// with admission enabled on a tight budget, subscribes are driven until
// one is rejected; the reject must leave the registry, the forests, and
// every live program untouched (snapshot-equal), with the deployment
// netcheck-certified both before and after the reject.
func TestAdmissionRejectLeavesStateUntouched(t *testing.T) {
	for _, covering := range []bool{false, true} {
		t.Run(fmt.Sprintf("covering=%v", covering), func(t *testing.T) {
			net := topology.MustFatTree(4)
			model := fitcheck.NewModelWith(tightBudget())
			opts := []Option{
				WithRouting(routing.Options{Policy: routing.TrafficReduction}),
				WithAdmission(model),
			}
			if covering {
				opts = append(opts, WithCovering())
			}
			svc, _ := newServiceForTest(t, net, opts...)

			// Load one host until admission trips. Disjoint price
			// equalities make every filter a fresh table entry on the
			// access switch even under covering (no filter implies
			// another, so the forests elide nothing).
			host, rejected := 1, false
			var accepted int
			for i := 0; i < 200 && !rejected; i++ {
				ev, _, err := svc.Subscribe(host, []subscription.Expr{
					filter(t, fmt.Sprintf("stock == GOOGL and price == %d", i)),
				})
				switch {
				case err == nil:
					accepted++
					<-ev.Done()
					if eerr := ev.Err(); eerr != nil {
						t.Fatalf("subscribe %d applied with error: %v", i, eerr)
					}
				case errors.Is(err, ErrAdmissionRejected):
					rejected = true
				default:
					t.Fatalf("subscribe %d: unexpected error: %v", i, err)
				}
			}
			if !rejected {
				t.Fatal("admission never rejected under the tight budget")
			}
			if accepted == 0 {
				t.Fatal("admission rejected the very first subscribe; budget too tight to test state preservation")
			}

			svc.Quiesce()
			netValidate(t, svc, net)
			before := netState(svc, net)

			// The oversized delta: admission must refuse it atomically.
			_, _, err := svc.Subscribe(host, []subscription.Expr{
				filter(t, "stock == MSFT and price > 1 and shares > 2"),
			})
			if !errors.Is(err, ErrAdmissionRejected) {
				t.Fatalf("oversized subscribe: got %v, want ErrAdmissionRejected", err)
			}

			if after := netState(svc, net); after != before {
				t.Errorf("admission reject mutated control-plane state:\nbefore: %s\nafter:  %s", before, after)
			}
			netValidate(t, svc, net)

			snap := svc.Stats()
			if !snap.Admission {
				t.Error("Snapshot.Admission = false with WithAdmission set")
			}
			if snap.AdmissionChecks < int64(accepted)+1 {
				t.Errorf("AdmissionChecks = %d, want ≥ %d", snap.AdmissionChecks, accepted+1)
			}
			if snap.AdmissionRejects < 2 {
				t.Errorf("AdmissionRejects = %d, want ≥ 2 (churn trip + oversized delta)", snap.AdmissionRejects)
			}
			// The churn stopped when headroom dropped below the
			// per-subscribe estimate, so the gauge must read nearly
			// empty — but never negative (the admitted state fits).
			if snap.FitHeadroomEntries < 0 || snap.FitHeadroomEntries >= 4 {
				t.Errorf("FitHeadroomEntries = %d, want in [0,4) after the churn trip", snap.FitHeadroomEntries)
			}
			if snap.FitStageSRAMPct <= 0 {
				t.Errorf("FitStageSRAMPct = %g, want > 0", snap.FitStageSRAMPct)
			}
		})
	}
}

// TestAdmissionAcceptsWithinHeadroom: with the default Tofino-class
// budget the itch workload never trips admission, and the snapshot
// counters record the checks.
func TestAdmissionAcceptsWithinHeadroom(t *testing.T) {
	net := topology.MustFatTree(4)
	svc, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}),
		WithAdmission(fitcheck.NewModel()),
	)
	for i := 0; i < 10; i++ {
		ev, _, err := svc.Subscribe(i%len(net.Hosts), []subscription.Expr{
			filter(t, fmt.Sprintf("price > %d", i)),
		})
		if err != nil {
			t.Fatalf("subscribe %d rejected under the default budget: %v", i, err)
		}
		<-ev.Done()
	}
	snap := svc.Stats()
	if snap.AdmissionChecks != 10 || snap.AdmissionRejects != 0 {
		t.Errorf("checks/rejects = %d/%d, want 10/0", snap.AdmissionChecks, snap.AdmissionRejects)
	}
}

// TestPredictAddMirrorsAddFilter: the non-mutating prediction equals
// the rule ops AddFilter actually emits, across both placement modes.
func TestPredictAddMirrorsAddFilter(t *testing.T) {
	for _, covering := range []bool{false, true} {
		t.Run(fmt.Sprintf("covering=%v", covering), func(t *testing.T) {
			net := topology.MustFatTree(4)
			opts := []Option{WithRouting(routing.Options{Policy: routing.TrafficReduction})}
			if covering {
				opts = append(opts, WithCovering())
			}
			rec, err := NewReconcilerWith(net, itchSpec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			exprs := []string{
				"stock == GOOGL and price > 10",
				"stock == GOOGL and price > 10", // duplicate: refcount/cover, no new rules
				"stock == GOOGL",                // covers the first two under covering
				"price > 50",
			}
			for h, src := range exprs {
				e := filter(t, src)
				pred, err := rec.PredictAdd(h%2, e)
				if err != nil {
					t.Fatal(err)
				}
				_, ops, err := rec.AddFilter(h%2, e)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[int]int)
				for _, op := range ops {
					if op.Add {
						got[op.Switch]++
					}
				}
				for sw, n := range got {
					if pred[sw] < n {
						t.Errorf("filter %q: switch %d predicted %d adds, actual %d (prediction must be an upper bound)",
							src, sw, pred[sw], n)
					}
				}
				if !covering {
					// Full mode is exact, not just an upper bound.
					if fmt.Sprint(normalizeZero(pred)) != fmt.Sprint(normalizeZero(got)) {
						t.Errorf("filter %q: predicted %v, actual %v", src, pred, got)
					}
				}
			}
		})
	}
}

func normalizeZero(m map[int]int) map[int]int {
	out := make(map[int]int)
	for k, v := range m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}
