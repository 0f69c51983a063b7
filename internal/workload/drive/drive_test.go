package drive

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/ctlplane"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// TestVerdictCatchesPlantedFaults plants an apply fault, a validation
// fault and a network-validation fault behind both targets: each must
// fail the verdict, which passes on the same load without a fault. Two
// workers replay concurrently.
func TestVerdictCatchesPlantedFaults(t *testing.T) {
	planted := errors.New("planted fault")
	for _, tc := range []struct {
		name  string
		fault []ctlplane.Option
		want  string // in the verdict; "" for a pass
	}{
		{"clean", nil, ""},
		{"apply", []ctlplane.Option{ctlplane.WithApplyHook(func(int, int) error { return planted })},
			"batches failed"},
		{"validate", []ctlplane.Option{ctlplane.WithValidator(
			func(int, *compiler.Program, []*subscription.Rule) error { return planted }, 1)},
			"in validation"},
		{"netvalidate", []ctlplane.Option{ctlplane.WithNetValidator(
			func([]*compiler.Program, []ctlplane.HostFilter) error { return planted }, 1)},
			"network validations failed"},
	} {
		for _, http := range []bool{false, true} {
			d, err := New(Config{
				K: 4, Churn: workload.ChurnConfig{Events: 8, PoolSize: 8, Tenants: 4, Seed: 1},
				Service: tc.fault, HTTP: http, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err := errors.Join(err, d.Close()); err != nil {
				t.Fatalf("%s http=%t: %v", tc.name, http, err)
			}
			if n := res.Latency.N(); n != 8 {
				t.Errorf("%s http=%t: %d latencies for 8 events", tc.name, http, n)
			}
			verdict := fmt.Sprint(res.Verdict()) // "<nil>" on a pass
			if (tc.want == "") != (verdict == "<nil>") || !strings.Contains(verdict, tc.want) {
				t.Errorf("%s http=%t: verdict %s, want %q", tc.name, http, verdict, tc.want)
			}
			if http && strings.Contains(tc.name, "validate") && !strings.Contains(verdict, "/healthz") {
				t.Errorf("%s: daemon healthy after validation failures", tc.name)
			}
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	for _, w := range []int{0, -1} {
		if _, err := New(Config{K: 4, Workers: w}); !errors.Is(err, ErrWorkers) {
			t.Errorf("Workers %d: err %v, want ErrWorkers", w, err)
		}
	}
	if _, err := New(Config{K: 4, Workers: 1, HTTP: true}); err == nil {
		t.Error("HTTP mode without tenants accepted")
	}
}
