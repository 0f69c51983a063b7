package compiler

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// canonicalString is the byte-level identity programs are compared by:
// the Canonical() renumbering rendered through the deterministic String
// form.
func canonicalString(p *Program) string { return p.Canonical().String() }

// intRangeRules is bench/workloads.go's intRules (that package is main,
// so the generator is copied): 1000 rules, three in four
//
//	switch_id == a and hop_latency > b and queue_depth > c
//
// and one in four
//
//	egress_port == e and hop_latency > b
//
// with b on a 16-point grid shared by all switches. Unlike the equality
// chains of the other loads, merging the two shapes into one diagram is a
// cross product: 133 677 entries out of 1000 rules (Options.OneDiagram).
// They test different fields, so the compiler makes them two parts, of
// 8 608 entries together.
func intRangeRules(tb testing.TB, seed int64) []*subscription.Rule {
	tb.Helper()
	const switches, ports = 64, 32
	r := rand.New(rand.NewSource(seed))
	grid := make([]int, 16)
	for g := range grid {
		grid[g] = 700 + 18*g + r.Intn(6)
	}
	p := subscription.NewParser(formats.INT)
	rules := make([]*subscription.Rule, 1000)
	na, nb := 0, 0
	for i := range rules {
		var src string
		if i%4 == 3 {
			src = fmt.Sprintf("egress_port == %d and hop_latency > %d: fwd(%d)",
				nb%ports, grid[(nb/ports+nb)%len(grid)], i%48)
			nb++
		} else {
			k := na / switches // k-th rule of its switch, 0..11
			b := 706 + 18*k + r.Intn(6)
			c := 32 + 2*(k*5%12) + r.Intn(2)
			src = fmt.Sprintf("switch_id == %d and hop_latency > %d and queue_depth > %d: fwd(%d)",
				na%switches, b, c, i%48)
			na++
		}
		rule, err := p.ParseRule(src, i)
		if err != nil {
			tb.Fatal(err)
		}
		rules[i] = rule
	}
	return rules
}

// statefulLastHopRules holds two aggregates, the later-keyed one named
// first.
const statefulLastHopRules = `
count(1s) > 3 and stock == GOOGL: fwd(1)
shares > 5 or price < 2: fwd(2)
avg(price, 1s) > 4: fwd(3)
`

// TestCompileDeterministic: compiling is one sequential computation with
// no map-order or scheduling input, so two compiles of one rule set give
// the same program — Canonical()-equal and equal in their raw state IDs,
// the engine's creation-order node IDs (nothing renumbers them) — on every
// workload in the corpus. Each load also pins its entry count and the
// SHA-256 of its program's String form: merge order, pruning and node
// numbering are structural (DESIGN §11), so a change to the BDD kernel
// that moves one state ID or one entry fails here. The entry counts are
// those of the separate batch builder that one Incremental.Apply
// replaced, except on the two loads whose rules test different fields and
// compile as parts (siena-itch-100 was 28 093 entries as one diagram,
// int-range-1000 133 677). The digests were re-taken when MergeParts
// moved its trials into the engine's one node store: on the loads whose
// rules form two or more field groups, the trials' nodes now come before
// the part merges' and shift their IDs, where int-range-1000, whose parts
// are each one group, kept its digest. Counts and digests were re-taken
// again, every one lower, when the compiler stopped storing entries that
// go where their state's Defaults row goes.
func TestCompileDeterministic(t *testing.T) {
	for _, ld := range CompileLoads(t) {
		t.Run(ld.Name, func(t *testing.T) {
			first, err := Compile(ld.Spec, ld.Rules, ld.Opts)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Compile(ld.Spec, ld.Rules, ld.Opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonicalString(second), canonicalString(first); got != want {
				t.Errorf("canonical programs differ\nfirst:\n%s\nsecond:\n%s", want, got)
			}
			// String prints Init and every entry's raw state IDs.
			if got, want := second.String(), first.String(); got != want {
				t.Errorf("raw state IDs differ\nfirst:\n%s\nsecond:\n%s", want, got)
			}
			if got := first.TotalEntries(); got != ld.entries {
				t.Errorf("%d entries, pinned %d", got, ld.entries)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(first.String()))); got != ld.digest {
				t.Errorf("program digest %s, pinned %s: the compiled structure moved", got, ld.digest)
			}
		})
	}
}

// CompileLoad is one load of TestCompileDeterministic's corpus, exported
// for the package's external tests.
type CompileLoad struct {
	Name    string
	Spec    *spec.Spec
	Rules   []*subscription.Rule
	Opts    Options
	entries int
	digest  string
}

// CompileLoads builds TestCompileDeterministic's corpus with its pins.
func CompileLoads(t *testing.T) []CompileLoad {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(11))

	var loads []CompileLoad
	randomPins := map[int]struct {
		entries int
		digest  string
	}{
		10:  {118, "c373cb5e317a2aff35b703d2cfe7f04c4f383172b55eb43b6be97a8df86b5c79"},
		64:  {76, "453a7afa7502444e4c5cd919ded793e95d4d21a3ce7406110ec991dcbdf0422e"},
		300: {10, "44c41fb21b94e6dd0202e97432663e930a62b969d6cf3161da5a3f21db85851f"},
	}
	for _, n := range []int{10, 64, 300} {
		loads = append(loads, CompileLoad{
			Name:    fmt.Sprintf("random-%d", n),
			Spec:    sp,
			Rules:   randomRules(r, sp, n),
			entries: randomPins[n].entries,
			digest:  randomPins[n].digest,
		})
	}
	// Siena-style ITCH workload; a high equality bias keeps the ordering-
	// relation partition count (and thus test runtime) bounded.
	itchRules, err := workload.SienaRules(workload.SienaConfig{
		Spec: formats.ITCH, Filters: 100, Seed: 7, EqualityBias: 0.9,
	}, 48)
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, CompileLoad{Name: "siena-itch-100", Spec: formats.ITCH, Rules: itchRules, entries: 1045,
		digest: "b31fccebe3aa75dd37d0c00d540e583c6037c4cd96b24782a4a3fa74e2956279"})
	// Stateful last-hop compile exercises expandStateful + update rules.
	loads = append(loads, CompileLoad{
		Name:    "stateful-lasthop",
		Spec:    sp,
		Rules:   mustRules(t, sp, statefulLastHopRules),
		Opts:    Options{LastHop: true},
		entries: 58,
		digest:  "ef4af58bf4ea084ab3d0585e185303068f2c47cb139f0c4810f406cd25f961c6",
	})
	loads = append(loads, CompileLoad{Name: "int-range-1000", Spec: formats.INT, Rules: intRangeRules(t, 1), entries: 7801,
		digest: "c44f772e78605872e2c08af2d23ec86338a405f53994657da6bcd5e9ec808ed9"})

	return loads
}

// TestOneApplyOrdersNewFields: the fields one Apply introduces are
// ordered by fieldLess, not by first reference, so a live compile of the
// stateful-lasthop load — whose count(1s) rule precedes its avg(price,
// 1s) rule — is the program the separate batch builder emitted: 75
// entries then, 58 since an entry that goes where its state's default
// goes is left out, and that program's Canonical() form, whose digest
// was re-taken then and is pinned.
func TestOneApplyOrdersNewFields(t *testing.T) {
	sp := testSpec(t)
	inc, err := NewIncremental(sp, Options{LastHop: true})
	if err != nil {
		t.Fatal(err)
	}
	up, err := inc.Apply(mustRules(t, sp, statefulLastHopRules), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := up.Program.TotalEntries(); got != 58 {
		t.Errorf("%d entries, want 58", got)
	}
	const batch = "b954e0a9e579bae38d8bbb9856cebcc5fbe59293ec6b5990f710f5ecf827d89e"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(canonicalString(up.Program)))); got != batch {
		t.Errorf("canonical digest %s, want the batch program's %s", got, batch)
	}
}

// TestNormalizeError: a rule that does not normalize, deep inside a
// batch, fails Compile and fails Incremental.Apply before any rule of the
// batch reaches the engine.
func TestNormalizeError(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(3))
	rules := randomRules(r, sp, 100)
	p := subscription.NewParser(sp)
	bad, err := p.ParseRule("not (name prefix AB): fwd(1)", len(rules))
	if err != nil {
		t.Fatal(err)
	}
	rules = append(rules[:70], append([]*subscription.Rule{bad}, rules[70:]...)...)
	if _, err := Compile(sp, rules, Options{}); err == nil {
		t.Fatal("expected normalization error for negated prefix constraint")
	}
	inc, err := NewIncremental(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(rules, nil); err == nil {
		t.Fatal("Apply accepted the batch")
	}
	if got := inc.Rules(); len(got) != 0 {
		t.Errorf("failed batch left %d rules in the engine", len(got))
	}
}

// TestIncrementalBatchEquivalence: one large Apply (the shape of
// ctlplane's FullRebuild, which re-adds a switch's whole registry) must
// produce the same canonical program as a batch compile of the same
// rules.
func TestIncrementalBatchEquivalence(t *testing.T) {
	sp := testSpec(t)
	r := rand.New(rand.NewSource(5))
	rules := randomRules(r, sp, 200)

	inc, err := NewIncremental(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(rules, nil); err != nil {
		t.Fatal(err)
	}
	batch, err := Compile(sp, rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalString(inc.Program()), canonicalString(batch); got != want {
		t.Errorf("one-batch incremental program differs from batch compile")
	}
}

// TestCanonicalGroupRenumbering: the canonical program's multicast
// groups are numbered in canonical-leaf encounter order, so programs from
// compilers that met the port sets in different orders still compare
// equal.
func TestCanonicalGroupRenumbering(t *testing.T) {
	sp := testSpec(t)
	p := compile(t, sp, `
stock == GOOGL: fwd(1)
stock == GOOGL: fwd(2)
stock == MSFT: fwd(3)
stock == MSFT: fwd(4)
`, Options{})
	if p.Egress().Groups() < 2 {
		t.Fatalf("want >=2 multicast groups, got %d", p.Egress().Groups())
	}
	c := p.Canonical()
	eg := c.Egress()
	if eg.Groups() != p.Egress().Groups() {
		t.Fatalf("canonical group count %d != %d", eg.Groups(), p.Egress().Groups())
	}
	next := 0
	for i := range c.Leaf {
		g := eg.Group(i + 1)
		if g < 0 {
			continue
		}
		if g > next {
			t.Errorf("groups not renumbered in leaf encounter order: got %d want <= %d", g, next)
		}
		if g == next {
			next++
		}
	}
	if next != eg.Groups() {
		t.Errorf("leaves reach %d groups of %d", next, eg.Groups())
	}
}

// TestConcurrentIncrementalChurn states the compiler's concurrency
// contract under -race: an Incremental — engine, universe, emitter —
// belongs to one goroutine at a time and holds no lock, so independent
// compilers churning side by side (ctlplane runs one per switch worker)
// must share nothing mutable.
func TestConcurrentIncrementalChurn(t *testing.T) {
	sp := testSpec(t)
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			rules := randomRules(r, sp, 120)
			inc, err := NewIncremental(sp, Options{})
			if err != nil {
				errc <- err
				return
			}
			for i, rule := range rules {
				if _, err := inc.Add(rule); err != nil {
					errc <- err
					return
				}
				if i%3 == 2 {
					if _, err := inc.Remove(rules[i-1].ID); err != nil {
						errc <- err
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
