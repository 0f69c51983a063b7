package bdd

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// raceSpec mirrors the compiler test spec: two headers so validity
// guards and both field types appear.
const raceSpecSrc = `
header ord_qty {
    shares : u32 @field;
    price : u32 @field;
}
header ord_sym {
    stock : str8 @field_exact;
}
`

func raceRules(t *testing.T, n int, seed int64) []subscription.NormalizedRule {
	t.Helper()
	sp := spec.MustParse("race", raceSpecSrc)
	p := subscription.NewParser(sp)
	r := rand.New(rand.NewSource(seed))
	stocks := []string{"GOOGL", "MSFT", "AAPL", "NFLX"}
	rels := []string{"==", "!=", "<", ">"}
	var normalized []subscription.NormalizedRule
	for i := 0; i < n; i++ {
		var terms []string
		for _, f := range []string{"shares", "price"} {
			if r.Intn(2) == 0 {
				terms = append(terms, fmt.Sprintf("%s %s %d", f, rels[r.Intn(len(rels))], r.Intn(8)))
			}
		}
		if len(terms) == 0 || r.Intn(2) == 0 {
			terms = append(terms, fmt.Sprintf("stock == %s", stocks[r.Intn(len(stocks))]))
		}
		rule, err := p.ParseRule(fmt.Sprintf("%s: fwd(%d)", strings.Join(terms, " and "), r.Intn(4)), i)
		if err != nil {
			t.Fatal(err)
		}
		nrs, err := subscription.NormalizeRule(rule)
		if err != nil {
			t.Fatal(err)
		}
		normalized = append(normalized, nrs...)
	}
	return normalized
}

// TestConcurrentBuildSharedUniverse is the -race stress for the sharded
// unique table and the universe memo caches: several goroutines run
// parallel builds (chain fan-out enabled) against ONE shared Universe,
// so FreshCtx/RefineCtx/impliesCtx interning races with itself across
// builders while each builder's shards race across its own workers. All
// builds must agree semantically with a sequential baseline.
func TestConcurrentBuildSharedUniverse(t *testing.T) {
	rules := raceRules(t, 120, 17)
	u := NewUniverse(spec.MustParse("race", raceSpecSrc), rules, SpecOrder)

	baseline, err := BuildInUniverse(u, rules, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := len(baseline.Reachable())

	const goroutines = 6
	var wg sync.WaitGroup
	diagrams := make([]*BDD, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			diagrams[g], errs[g] = BuildInUniverse(u, rules, Options{Parallelism: 4})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// Structural identity: batch builds are DFS-renumbered, so every
	// diagram must match the sequential baseline node-for-node.
	for g, d := range diagrams {
		if got := len(d.Reachable()); got != wantNodes {
			t.Errorf("goroutine %d: %d reachable nodes, want %d", g, got, wantNodes)
		}
		if d.Root.ID != baseline.Root.ID {
			t.Errorf("goroutine %d: root ID %d, want %d", g, d.Root.ID, baseline.Root.ID)
		}
	}

	// Semantic identity on a message sample.
	sp := u.Spec
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		m := spec.NewMessage(sp)
		m.MustSet("shares", spec.IntVal(int64(r.Intn(10))))
		m.MustSet("price", spec.IntVal(int64(r.Intn(10))))
		m.MustSet("stock", spec.StrVal([]string{"GOOGL", "MSFT", "AAPL", "NFLX"}[r.Intn(4)]))
		want := baseline.Eval(m, nil).Key()
		for g, d := range diagrams {
			if got := d.Eval(m, nil).Key(); got != want {
				t.Fatalf("goroutine %d disagrees on %s: %s vs %s", g, m, got, want)
			}
		}
	}
}

// TestConcurrentEngineBuilds races independent incremental engines (each
// with its own universe and builder) under -race: engines share no
// state, so this guards against accidental package-level mutability in
// the arena/memo rework.
func TestConcurrentEngineBuilds(t *testing.T) {
	ruleSets := make([][]subscription.NormalizedRule, 4)
	for g := range ruleSets {
		ruleSets[g] = raceRules(t, 60, int64(g+1))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rules []subscription.NormalizedRule) {
			defer wg.Done()
			e := NewEngine(spec.MustParse("race", raceSpecSrc), Options{})
			for i := range rules {
				if err := e.Add(rules[i]); err != nil {
					errc <- err
					return
				}
				if i%4 == 3 {
					e.Remove(rules[i-1].RuleID)
				}
				e.Build()
			}
		}(ruleSets[g])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
