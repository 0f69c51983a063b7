package topology

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestFatTreeK4Shape(t *testing.T) {
	n := MustFatTree(4)
	// The paper's Mininet instance: 20 switches, 16 hosts.
	if len(n.Switches) != 20 {
		t.Errorf("switches = %d, want 20", len(n.Switches))
	}
	if len(n.Hosts) != 16 {
		t.Errorf("hosts = %d, want 16", len(n.Hosts))
	}
	if got := len(n.LayerSwitches(ToR)); got != 8 {
		t.Errorf("ToR switches = %d, want 8", got)
	}
	if got := len(n.LayerSwitches(Agg)); got != 8 {
		t.Errorf("Agg switches = %d, want 8", got)
	}
	if got := len(n.LayerSwitches(Core)); got != 4 {
		t.Errorf("Core switches = %d, want 4", got)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFatTreePortRoles(t *testing.T) {
	n := MustFatTree(4)
	for _, s := range n.Switches {
		up, down, hosts := len(s.UpPorts()), len(s.DownPorts()), len(s.HostPorts())
		switch s.Layer {
		case ToR:
			if up != 2 || down != 0 || hosts != 2 {
				t.Errorf("%s: up=%d down=%d hosts=%d", s.Name, up, down, hosts)
			}
		case Agg:
			if up != 2 || down != 2 || hosts != 0 {
				t.Errorf("%s: up=%d down=%d hosts=%d", s.Name, up, down, hosts)
			}
		case Core:
			if up != 0 || down != 4 || hosts != 0 {
				t.Errorf("%s: up=%d down=%d hosts=%d", s.Name, up, down, hosts)
			}
		}
	}
}

func TestFatTreeSizes(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		n := MustFatTree(k)
		if err := n.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantSwitches := k*k + k*k/4
		if len(n.Switches) != wantSwitches {
			t.Errorf("k=%d: switches = %d, want %d", k, len(n.Switches), wantSwitches)
		}
		wantHosts := k * k * k / 4
		if len(n.Hosts) != wantHosts {
			t.Errorf("k=%d: hosts = %d, want %d", k, len(n.Hosts), wantHosts)
		}
	}
	if _, err := FatTree(3); err == nil {
		t.Error("odd arity accepted")
	}
	if _, err := FatTree(0); err == nil {
		t.Error("zero arity accepted")
	}
}

func TestHostAccess(t *testing.T) {
	n := MustFatTree(4)
	for _, h := range n.Hosts {
		sw, port := n.Access(h.ID)
		s := n.Switches[sw]
		if s.Layer != ToR {
			t.Errorf("host %s attached to %s layer %v", h.Name, s.Name, s.Layer)
		}
		if s.Ports[port].PeerHostID != h.ID {
			t.Errorf("host %s access port mismatch", h.Name)
		}
	}
}

func ringGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func starGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := ringGraph(5)
	if g.Edges() != 5 {
		t.Errorf("ring edges = %d", g.Edges())
	}
	g.AddEdge(0, 1) // duplicate
	if g.Edges() != 5 {
		t.Errorf("duplicate edge added")
	}
	g.AddEdge(2, 2) // self loop
	if g.Edges() != 5 {
		t.Errorf("self loop added")
	}
	if !g.Connected() {
		t.Error("ring not connected")
	}
	g2 := NewGraph(4)
	g2.AddEdge(0, 1)
	if g2.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestPrimMSTSpansGraph(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(50)
		g := NewGraph(n)
		// Random connected graph: a random spanning path plus extra edges.
		perm := r.Perm(n)
		for i := 1; i < n; i++ {
			g.AddEdge(perm[i-1], perm[i])
		}
		for i := 0; i < n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		tree, err := PrimMST(g, 0, UnitWeight)
		if err != nil {
			t.Fatalf("PrimMST: %v", err)
		}
		// Exactly n-1 tree edges, all graph edges, every vertex reached.
		edges := 0
		for v := 0; v < n; v++ {
			if v == tree.Root {
				if tree.Parent[v] != -1 {
					t.Fatalf("root has parent")
				}
				continue
			}
			p := tree.Parent[v]
			if p < 0 {
				t.Fatalf("vertex %d unreached", v)
			}
			found := false
			for _, nb := range g.Adj[v] {
				if nb == p {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tree edge (%d,%d) not in graph", v, p)
			}
			edges++
		}
		if edges != n-1 {
			t.Fatalf("tree has %d edges, want %d", edges, n-1)
		}
		if got := len(tree.PostOrder()); got != n {
			t.Fatalf("post-order visits %d of %d", got, n)
		}
		// Post-order: children before parents.
		pos := make([]int, n)
		for i, v := range tree.PostOrder() {
			pos[v] = i
		}
		for v := 0; v < n; v++ {
			for _, c := range tree.Kids[v] {
				if pos[c] > pos[v] {
					t.Fatalf("child %d after parent %d in post-order", c, v)
				}
			}
		}
	}
}

func TestPrimMSTDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, err := PrimMST(g, 0, UnitWeight); err == nil {
		t.Error("disconnected graph spanned")
	}
	if _, err := PrimMST(g, 99, UnitWeight); err == nil {
		t.Error("bad root accepted")
	}
}

// TestMSTPlusPlusLowersDegree: on a graph with hubs plus a ring, the
// degree-product weight avoids concentrating tree edges on hubs.
func TestMSTPlusPlusLowersDegree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	better, worse := 0, 0
	for trial := 0; trial < 10; trial++ {
		n := 200
		g := ringGraph(n)
		// Add hubs: a few vertices connected to many others.
		for h := 0; h < 5; h++ {
			hub := r.Intn(n)
			for i := 0; i < 60; i++ {
				g.AddEdge(hub, r.Intn(n))
			}
		}
		mst, err := PrimMST(g, 0, UnitWeight)
		if err != nil {
			t.Fatal(err)
		}
		mstPP, err := PrimMST(g, 0, DegreeProductWeight(g))
		if err != nil {
			t.Fatal(err)
		}
		if mstPP.MaxDegree() < mst.MaxDegree() {
			better++
		} else if mstPP.MaxDegree() > mst.MaxDegree() {
			worse++
		}
	}
	if better <= worse {
		t.Errorf("MST++ max degree: better %d trials, worse %d — heuristic ineffective", better, worse)
	}
}

func TestTreeNeighbors(t *testing.T) {
	g := starGraph(5)
	tree, err := PrimMST(g, 0, UnitWeight)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tree.TreeNeighbors(0)); got != 4 {
		t.Errorf("root neighbors = %d", got)
	}
	if got := len(tree.TreeNeighbors(1)); got != 1 {
		t.Errorf("leaf neighbors = %d", got)
	}
	if tree.MaxDegree() != 4 {
		t.Errorf("star max degree = %d", tree.MaxDegree())
	}
}

// TestMustFatTreeTakesConstants: MustFatTree panics only on an arity
// FatTree refuses, and no input reaches it — every call in the module
// (the camusd, camusc and camus-sim flags go to FatTree, which returns the
// error) passes an integer literal that FatTree accepts.
func TestMustFatTreeTakesConstants(t *testing.T) {
	calls := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			if name != "MustFatTree" {
				return true
			}
			calls++
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.INT {
				t.Errorf("%s: MustFatTree takes a non-literal arity", path)
				return true
			}
			k, _ := strconv.Atoi(lit.Value)
			if _, err := FatTree(k); err != nil {
				t.Errorf("%s: MustFatTree(%d) would panic: %v", path, k, err)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("found no MustFatTree call: the scan read nothing")
	}
}
