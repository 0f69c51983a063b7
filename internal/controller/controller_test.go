package controller

import (
	"fmt"
	"testing"

	"camus/internal/compiler"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

var testSpec = spec.MustParse("itch", `
header itch_order {
    shares : u32 @field;
    price : u32 @field;
    stock : str8 @field_exact;
}
`)

func subsFor(t *testing.T, net *topology.Network) [][]subscription.Expr {
	t.Helper()
	p := subscription.NewParser(testSpec)
	subs := make([][]subscription.Expr, len(net.Hosts))
	for h := range subs {
		f, err := p.ParseFilter(fmt.Sprintf("stock == S%d and price > %d", h%4, h*5))
		if err != nil {
			t.Fatal(err)
		}
		subs[h] = []subscription.Expr{f}
	}
	return subs
}

func TestDeployCompilesEverySwitch(t *testing.T) {
	net := topology.MustFatTree(4)
	d, err := Deploy(net, testSpec, subsFor(t, net), Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Programs) != len(net.Switches) {
		t.Fatalf("programs = %d, want %d", len(d.Programs), len(net.Switches))
	}
	for i, p := range d.Programs {
		if p == nil {
			t.Fatalf("switch %d has no program", i)
		}
		if err := d.Static.Validate(p); err != nil {
			t.Errorf("switch %s: %v", net.Switches[i].Name, err)
		}
	}
	for _, st := range d.Stats {
		if st.Entries == 0 {
			t.Errorf("switch %s compiled to zero entries", st.Switch)
		}
	}
}

// TestStatefulOnlyAtToR: stateful rules allocate registers on ToR
// programs only; upstream layers forward the stateless superset (§II).
func TestStatefulOnlyAtToR(t *testing.T) {
	net := topology.MustFatTree(4)
	p := subscription.NewParser(testSpec)
	f, err := p.ParseFilter("stock == GOOGL and avg(price) > 60")
	if err != nil {
		t.Fatal(err)
	}
	subs := make([][]subscription.Expr, len(net.Hosts))
	subs[3] = []subscription.Expr{f}
	d, err := Deploy(net, testSpec, subs, Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Switches {
		regs := compiler.RegisterCount(d.Programs[s.ID])
		if s.Layer == topology.ToR && s.ID == net.Hosts[3].Switch {
			if regs != 1 {
				t.Errorf("subscriber ToR %s has %d registers, want 1", s.Name, regs)
			}
		} else if regs != 0 {
			t.Errorf("%s (%v) allocated %d registers, want 0", s.Name, s.Layer, regs)
		}
	}
}

func TestMaxLayerEntries(t *testing.T) {
	net := topology.MustFatTree(4)
	d, err := Deploy(net, testSpec, subsFor(t, net), Options{
		Routing: routing.Options{Policy: routing.MemoryReduction},
	})
	if err != nil {
		t.Fatal(err)
	}
	maxes := d.MaxLayerEntries()
	sums := d.LayerEntries()
	for _, l := range []topology.Layer{topology.ToR, topology.Agg, topology.Core} {
		if maxes[l] == 0 || maxes[l] > sums[l] {
			t.Errorf("layer %v: max=%d sum=%d", l, maxes[l], sums[l])
		}
	}
}

func TestDeployErrors(t *testing.T) {
	net := topology.MustFatTree(4)
	if _, err := Deploy(net, testSpec, nil, Options{}); err == nil {
		t.Error("mismatched subscription count accepted")
	}
	empty := spec.MustParse("empty", "header h { x : u8; }")
	subs := make([][]subscription.Expr, len(net.Hosts))
	if _, err := Deploy(net, empty, subs, Options{}); err == nil {
		t.Error("spec without subscribable fields accepted")
	}
}

// TestDeployMatchesPerSwitchCompile: Deploy's fan-out changes scheduling
// only — each switch's program is the one a plain loop of
// compiler.Compile over RulesForSwitch produces, and programs and stats
// land in switch order whichever worker compiled them.
func TestDeployMatchesPerSwitchCompile(t *testing.T) {
	net := topology.MustFatTree(4)
	d, err := Deploy(net, testSpec, subsFor(t, net), Options{
		Routing: routing.Options{Policy: routing.TrafficReduction},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range net.Switches {
		want, err := compiler.Compile(testSpec, d.Routing.RulesForSwitch(s.ID), compiler.Options{
			LastHopPort: s.HostFacing,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Programs[s.ID].Canonical().String() != want.Canonical().String() {
			t.Errorf("switch %s: deployed program differs from a direct compile of its rules", s.Name)
		}
		if st := d.Stats[s.ID]; st.Switch != s.Name || st.Entries != want.TotalEntries() {
			t.Errorf("switch %s: stats landed out of order: %+v, want %d entries", s.Name, st, want.TotalEntries())
		}
	}
}

// TestDeployParallelErrorPropagation: a compile failure on any switch
// must surface through the worker fan-out.
func TestDeployParallelErrorPropagation(t *testing.T) {
	net := topology.MustFatTree(4)
	opts := Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	opts.Compiler.BDD.MaxNodes = 1 // every switch's merge exceeds this
	if _, err := Deploy(net, testSpec, subsFor(t, net), opts); err == nil {
		t.Fatal("expected MaxNodes compile failure through the fan-out")
	}
}
