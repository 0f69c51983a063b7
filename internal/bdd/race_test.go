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

// TestConcurrentEngineBuilds states the package's concurrency contract
// under -race: a builder, Universe and Engine belong to one goroutine at a
// time and nothing in them is locked, so engines running side by side —
// one per control-plane switch worker in production — must share no
// state, package-level or otherwise.
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
