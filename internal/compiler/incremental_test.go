package compiler

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"camus/internal/bdd"
	"camus/internal/spec"
	"camus/internal/subscription"
)

func newInc(t *testing.T) (*Incremental, *subscription.Parser, *spec.Spec) {
	t.Helper()
	sp := testSpec(t)
	inc, err := NewIncremental(sp, Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	return inc, subscription.NewParser(sp), sp
}

func TestIncrementalAddRemove(t *testing.T) {
	inc, p, sp := newInc(t)
	r1, err := p.ParseRule("stock == GOOGL and price > 50: fwd(1)", 1)
	if err != nil {
		t.Fatal(err)
	}
	up, err := inc.Add(r1)
	if err != nil {
		t.Fatal(err)
	}
	if up.AddedEntries == 0 || up.RemovedEntries != 0 {
		t.Errorf("first add: %+v", up)
	}
	m := spec.NewMessage(sp)
	m.MustSet("stock", spec.StrVal("GOOGL"))
	m.MustSet("price", spec.IntVal(60))
	m.MustSet("shares", spec.IntVal(1))
	if got := inc.Program().Eval(m, nil).Key(); got != "fwd(1)" {
		t.Fatalf("after add: %s", got)
	}

	r2, err := p.ParseRule("stock == MSFT: fwd(2)", 2)
	if err != nil {
		t.Fatal(err)
	}
	up2, err := inc.Add(r2)
	if err != nil {
		t.Fatal(err)
	}
	if up2.ReusedEntries == 0 {
		t.Errorf("second add reused no entries: %+v", up2)
	}
	if got := inc.Program().Eval(m, nil).Key(); got != "fwd(1)" {
		t.Errorf("rule 1 lost after adding rule 2: %s", got)
	}

	up3, err := inc.Remove(1)
	if err != nil {
		t.Fatal(err)
	}
	if up3.RemovedEntries == 0 {
		t.Errorf("remove deleted no entries: %+v", up3)
	}
	if got := inc.Program().Eval(m, nil).Key(); got != "fwd()" {
		t.Errorf("rule 1 still active after removal: %s", got)
	}
	if ids := inc.Rules(); len(ids) != 1 || ids[0] != 2 {
		t.Errorf("rules = %v", ids)
	}

	// An unsatisfiable rule is counted while it is live and not after:
	// DroppedRules is the batch compile's of the same rules at every step.
	r7, err := p.ParseRule("price > 20 and price < 10: fwd(1)", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		apply func() (*Update, error)
		live  []*subscription.Rule
	}{
		{func() (*Update, error) { return inc.Add(r7) }, []*subscription.Rule{r2, r7}},
		{func() (*Update, error) { return inc.Remove(7) }, []*subscription.Rule{r2}},
	} {
		up, err := step.apply()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Compile(sp, step.live, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := up.Program.BDD.DroppedRules, batch.BDD.DroppedRules; got != want || want != len(step.live)-1 {
			t.Errorf("%d live rules: DroppedRules = %d, batch compile %d, want %d", len(step.live), got, want, len(step.live)-1)
		}
	}
}

func TestIncrementalErrors(t *testing.T) {
	inc, p, _ := newInc(t)
	r, err := p.ParseRule("price > 1: fwd(1)", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Add(r); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Add(r); err == nil {
		t.Error("duplicate rule ID accepted")
	}
	if _, err := inc.Remove(99); err == nil {
		t.Error("removing unknown rule succeeded")
	}
}

// TestIncrementalFieldOrders: every field order reads only the spec, so
// an Incremental churned in the ablation orders stays Canonical()-equal
// to a Compile of the survivors in the same order.
func TestIncrementalFieldOrders(t *testing.T) {
	sp := testSpec(t)
	p := subscription.NewParser(sp)
	for _, ord := range []bdd.FieldOrder{bdd.SpecOrder, bdd.ReverseSpecOrder} {
		opts := Options{BDD: bdd.Options{Order: ord}}
		inc, err := NewIncremental(sp, opts)
		if err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
		r := rand.New(rand.NewSource(int64(ord)))
		var live []*subscription.Rule // ascending ID
		for step := 0; step < 40; step++ {
			if len(live) > 3 && r.Intn(3) == 0 {
				i := r.Intn(len(live))
				if _, err := inc.Remove(live[i].ID); err != nil {
					t.Fatalf("order %d, step %d: %v", ord, step, err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				src := fmt.Sprintf("stock == S%d and price > %d: fwd(%d)", r.Intn(4), r.Intn(30), r.Intn(5))
				if r.Intn(2) == 0 {
					src = fmt.Sprintf("shares < %d or price > %d: fwd(%d)", r.Intn(30), r.Intn(30), r.Intn(5))
				}
				rule, err := p.ParseRule(src, step)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := inc.Add(rule); err != nil {
					t.Fatalf("order %d, step %d: %v", ord, step, err)
				}
				live = append(live, rule)
			}
			batch, err := Compile(sp, live, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonicalString(inc.Program()), canonicalString(batch); got != want {
				t.Fatalf("order %d, step %d (%d live rules): churned program differs from a compile of the survivors", ord, step, len(live))
			}
		}
	}
}

// TestIncrementalMatchesBatch: after any sequence of adds and removes,
// the incremental program is semantically identical to a from-scratch
// batch compile of the live rules.
func TestIncrementalMatchesBatch(t *testing.T) {
	inc, p, sp := newInc(t)
	r := rand.New(rand.NewSource(31))
	live := make(map[int]*subscription.Rule)
	stocks := []string{"GOOGL", "MSFT", "AAPL"}
	nextID := 0
	for step := 0; step < 40; step++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			// Remove a random live rule.
			for id := range live {
				if _, err := inc.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		} else {
			src := fmt.Sprintf("stock == %s and price > %d: fwd(%d)",
				stocks[r.Intn(3)], r.Intn(10), r.Intn(5))
			rule, err := p.ParseRule(src, nextID)
			if err != nil {
				t.Fatal(err)
			}
			nextID++
			if _, err := inc.Add(rule); err != nil {
				t.Fatal(err)
			}
			live[rule.ID] = rule
		}

		// Compare against a fresh batch compile on random messages.
		var rules []*subscription.Rule
		for _, rr := range live {
			rules = append(rules, rr)
		}
		batch, err := Compile(sp, rules, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			m := spec.NewMessage(sp)
			m.MustSet("stock", spec.StrVal(stocks[r.Intn(3)]))
			m.MustSet("price", spec.IntVal(int64(r.Intn(12))))
			m.MustSet("shares", spec.IntVal(1))
			want := batch.Eval(m, nil).Key()
			got := inc.Program().Eval(m, nil).Key()
			if got != want {
				t.Fatalf("step %d: incremental %s != batch %s on %s", step, got, want, m)
			}
		}
	}
}

// TestIncrementalCanonicalEquivalence is the churn property test: after
// every step of a randomized Add/Remove sequence, the incrementally
// maintained program must be entry-for-entry identical (under Canonical
// renumbering) to a fresh batch compile of the surviving rule set. This
// is what the seeded, arrival-independent BDD variable order buys.
func TestIncrementalCanonicalEquivalence(t *testing.T) {
	inc, p, sp := newInc(t)
	r := rand.New(rand.NewSource(7))
	live := make(map[int]*subscription.Rule)
	nextID := 0
	check := func(step int) {
		t.Helper()
		// Batch-compile the survivors in rule-ID order — the canonical
		// merge order the engine also uses (with pruning the BDD is
		// merge-order sensitive, so equivalence is stated against the
		// ID-sorted batch build).
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		rules := make([]*subscription.Rule, 0, len(ids))
		for _, id := range ids {
			rules = append(rules, live[id])
		}
		batch, err := Compile(sp, rules, Options{})
		if err != nil {
			t.Fatalf("step %d: batch compile: %v", step, err)
		}
		added, removed, _ := DiffPrograms(inc.Program().Canonical(), batch.Canonical())
		if added != 0 || removed != 0 {
			t.Fatalf("step %d (%d live rules): incremental differs from batch: +%d -%d entries",
				step, len(live), added, removed)
		}
	}
	atoms := []func() string{
		func() string { return fmt.Sprintf("stock == S%02d", r.Intn(6)) },
		func() string { return fmt.Sprintf("price > %d", r.Intn(40)) },
		func() string { return fmt.Sprintf("price < %d", 10+r.Intn(40)) },
		func() string { return fmt.Sprintf("shares >= %d", r.Intn(20)) },
		func() string { return fmt.Sprintf("shares != %d", r.Intn(20)) },
	}
	for step := 0; step < 60; step++ {
		if len(live) > 4 && r.Intn(3) == 0 {
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			id := ids[r.Intn(len(ids))]
			if _, err := inc.Remove(id); err != nil {
				t.Fatalf("step %d: Remove(%d): %v", step, id, err)
			}
			delete(live, id)
		} else {
			conj := atoms[r.Intn(len(atoms))]()
			if r.Intn(2) == 0 {
				conj += " and " + atoms[r.Intn(len(atoms))]()
			}
			src := fmt.Sprintf("%s: fwd(%d)", conj, r.Intn(8))
			rule, err := p.ParseRule(src, nextID)
			if err != nil {
				t.Fatalf("step %d: ParseRule(%q): %v", step, src, err)
			}
			if _, err := inc.Add(rule); err != nil {
				t.Fatalf("step %d: Add(%q): %v", step, src, err)
			}
			live[nextID] = rule
			nextID++
		}
		if step%5 == 4 || step == 59 {
			check(step)
		}
	}

	// Rule maintenance errors are classified.
	if _, err := inc.Remove(424242); !errors.Is(err, ErrUnknownRule) {
		t.Errorf("Remove(unknown) = %v, want ErrUnknownRule", err)
	}
	for id, rr := range live {
		if _, err := inc.Add(rr); !errors.Is(err, ErrDuplicateRule) {
			t.Errorf("Add(duplicate %d) = %v, want ErrDuplicateRule", id, err)
		}
		break
	}
}

// TestIncrementalDeltaMatchesDiff holds the delta Apply counts from the
// blocks that entered and left the program to the entry-by-entry oracle:
// over 300 random batches (several adds and removes each, some that
// change nothing, and one compaction — the live rules moved to a fresh
// Incremental, as ctlplane's FullRebuild does) Update's three counts
// equal DiffPrograms(previous, new), and the program stays Canonical()-
// equal to a batch compile of the ID-sorted live rules.
func TestIncrementalDeltaMatchesDiff(t *testing.T) {
	inc, p, sp := newInc(t)
	r := rand.New(rand.NewSource(11))
	live := make(map[int]*subscription.Rule)
	liveIDs := func() []int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}
	check := func(step int, old *Program, up *Update) {
		t.Helper()
		if up.Program != inc.Program() {
			t.Fatalf("step %d: Update.Program is not the Incremental's program", step)
		}
		added, removed, reused := DiffPrograms(old, up.Program)
		if up.AddedEntries != added || up.RemovedEntries != removed || up.ReusedEntries != reused {
			t.Fatalf("step %d: Update counts +%d -%d =%d, DiffPrograms +%d -%d =%d", step,
				up.AddedEntries, up.RemovedEntries, up.ReusedEntries, added, removed, reused)
		}
		var rules []*subscription.Rule
		for _, id := range liveIDs() {
			rules = append(rules, live[id])
		}
		batch, err := Compile(sp, rules, Options{})
		if err != nil {
			t.Fatalf("step %d: batch compile: %v", step, err)
		}
		if added, removed, _ := DiffPrograms(up.Program.Canonical(), batch.Canonical()); added+removed != 0 {
			t.Fatalf("step %d (%d live rules): incremental differs from batch: +%d -%d entries",
				step, len(live), added, removed)
		}
	}
	atoms := []func() string{
		func() string { return fmt.Sprintf("stock == S%02d", r.Intn(40)) },
		func() string { return fmt.Sprintf("stock == S%02d", r.Intn(40)) },
		func() string { return fmt.Sprintf("price > %d", 10*r.Intn(20)) },
		func() string { return fmt.Sprintf("price < %d", 100+10*r.Intn(20)) },
		func() string { return fmt.Sprintf("shares != %d", r.Intn(8)) },
	}
	nextID := 0
	for step := 0; step < 300; step++ {
		if step == 150 {
			fresh, err := NewIncremental(sp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var rules []*subscription.Rule
			for _, id := range liveIDs() {
				rules = append(rules, live[id])
			}
			inc = fresh
			old := inc.Program()
			up, err := inc.Add(rules...)
			if err != nil {
				t.Fatal(err)
			}
			check(step, old, up)
			continue
		}
		var add []*subscription.Rule
		var remove []int
		for n := r.Intn(4); n > 0 && len(live) > 8; n-- {
			ids := liveIDs()
			id := ids[r.Intn(len(ids))]
			remove = append(remove, id)
			delete(live, id)
		}
		for n := r.Intn(4); n > 0; n-- {
			src := atoms[r.Intn(len(atoms))]()
			if r.Intn(3) > 0 {
				src += " and " + atoms[2+r.Intn(3)]()
			}
			rule, err := p.ParseRule(fmt.Sprintf("%s: fwd(%d)", src, r.Intn(6)), nextID)
			if err != nil {
				t.Fatalf("step %d: ParseRule(%q): %v", step, src, err)
			}
			add = append(add, rule)
			live[nextID] = rule
			nextID++
		}
		old := inc.Program()
		up, err := inc.Apply(add, remove)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		if len(add)+len(remove) == 0 && up.Program != old {
			t.Fatalf("step %d: an empty batch emitted a new program", step)
		}
		check(step, old, up)
	}
}

// TestIncrementalReuse: adding one rule to a large set must reuse most
// entries and be much faster than the initial build — the point of the
// memoized engine. Entry reuse is measured on a rule whose semantic
// footprint is small (it gates on a price threshold above almost every
// existing one, so only the top few range cells change); a rule that
// cuts a low threshold legitimately rewrites most downstream range
// cells, and for that case we assert only that the delta stays below a
// full reinstall.
func TestIncrementalReuse(t *testing.T) {
	inc, p, _ := newInc(t)
	var rules []*subscription.Rule
	for i := 0; i < 300; i++ {
		src := fmt.Sprintf("stock == S%03d and price > %d: fwd(%d)", i%50, (i*13)%500, i%16)
		r, err := p.ParseRule(src, i)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	start := time.Now()
	if _, err := inc.Add(rules...); err != nil {
		t.Fatal(err)
	}
	initial := time.Since(start)
	baseTotal := inc.Program().TotalEntries()

	narrow, err := p.ParseRule("stock == ZZZZ and price > 490: fwd(7)", 10000)
	if err != nil {
		t.Fatal(err)
	}
	upN, err := inc.Add(narrow)
	if err != nil {
		t.Fatal(err)
	}
	total := upN.AddedEntries + upN.ReusedEntries
	if upN.ReusedEntries < total*2/3 {
		t.Errorf("narrow single-rule add reused only %d of %d entries", upN.ReusedEntries, total)
	}
	if upN.Elapsed > initial {
		t.Errorf("incremental add (%v) slower than initial 300-rule build (%v)", upN.Elapsed, initial)
	}

	// A low threshold rewrites most range cells, but the delta must
	// still be strictly smaller than tearing down the old program and
	// installing the new one entry by entry.
	extra, err := p.ParseRule("stock == ZZZZ and price > 123: fwd(7)", 10001)
	if err != nil {
		t.Fatal(err)
	}
	up, err := inc.Add(extra)
	if err != nil {
		t.Fatal(err)
	}
	fullWrites := baseTotal + up.Program.TotalEntries()
	if writes := up.AddedEntries + up.RemovedEntries; writes >= fullWrites {
		t.Errorf("deep update delta (%d writes) not smaller than full reinstall (%d)", writes, fullWrites)
	}
	if up.Elapsed > initial {
		t.Errorf("deep incremental add (%v) slower than initial 300-rule build (%v)", up.Elapsed, initial)
	}

	// Removing the rule restores the previous entry set.
	before := entryKeys(inc.Program())
	up2, err := inc.Remove(10001)
	if err != nil {
		t.Fatal(err)
	}
	_ = up2
	// Re-adding produces the same program again (node IDs stable).
	up3, err := inc.Add(extra)
	if err != nil {
		t.Fatal(err)
	}
	after := entryKeys(up3.Program)
	if len(before) != len(after) {
		t.Errorf("entry sets differ after remove/re-add: %d vs %d", len(before), len(after))
	}
	for k := range before {
		if after[k] != before[k] {
			t.Errorf("entry %q changed across remove/re-add", k)
		}
	}
}

func BenchmarkIncrementalAddOne(b *testing.B) {
	sp := testSpec(b)
	p := subscription.NewParser(sp)
	inc, err := NewIncremental(sp, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		src := fmt.Sprintf("stock == S%03d and price > %d: fwd(%d)", i%50, (i*13)%500, i%16)
		r, err := p.ParseRule(src, i)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := 1000 + i
		r, err := p.ParseRule(fmt.Sprintf("stock == X%d and price > %d: fwd(3)", i, i%997), id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Add(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalChurn is one warm subscription change on a switch
// holding n live rules: add a rule, then remove the one added four
// rounds earlier (whose compile state has cooled), as a control-plane
// worker does once per event. One op is the add plus the remove. The
// live set is a symbol × threshold grid — 64 symbols at 192 rules, the
// shape of the benchmark's ctl_churn set, n/20 above that — on even
// thresholds; the churn walks the odd ones, so every add changes the
// program.
func BenchmarkIncrementalChurn(b *testing.B) {
	for _, n := range []int{192, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sp := testSpec(b)
			p := subscription.NewParser(sp)
			syms := max(64, n/20)
			rule := func(i int) *subscription.Rule {
				sym, thr := i%syms, 2*(i/syms)
				if j := i - n; j >= 0 {
					sym, thr = (j*37)%syms, 2*((j*7)%(n/syms+1))+1
				}
				src := fmt.Sprintf("stock == S%04d and price > %d: fwd(%d)", sym, 10*thr, (sym+thr/2)%16)
				r, err := p.ParseRule(src, i)
				if err != nil {
					b.Fatal(err)
				}
				return r
			}
			inc, err := NewIncremental(sp, Options{})
			if err != nil {
				b.Fatal(err)
			}
			rules := make([]*subscription.Rule, n)
			for i := range rules {
				rules[i] = rule(i)
			}
			if _, err := inc.Add(rules...); err != nil {
				b.Fatal(err)
			}
			const lag = 4
			next := n
			for ; next < n+lag; next++ {
				if _, err := inc.Add(rule(next)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inc.Add(rule(next)); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Remove(next - lag); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

// TestIncrementalStructurePin is TestCompileDeterministic's digest pin for
// engine builds, whose state IDs are the builder's creation-order node IDs
// (never renumbered): a seeded churn — adds, removes, an unsatisfiable
// rule, custom actions, a stateful last-hop rule — hashed program by
// program. The one-diagram constant was re-taken at PR 23, which moved
// @field_exact fields to the front of the variable order; a kernel that
// creates one node in a different order fails here. The churn's rules
// test different fields, so by default most of its programs have two or
// three parts (bdd.Engine.MergeParts): the one-diagram pin holds the
// kernel as it was, the parts pin the part decision and the part merges.
// The parts pin was re-taken when the part trials moved into the engine's
// one node store, whose IDs their nodes now take.
func TestIncrementalStructurePin(t *testing.T) {
	for _, c := range []struct {
		name   string
		opts   Options
		pinned string
	}{
		{"one-diagram", Options{LastHop: true, OneDiagram: true}, "470d19467156a6818c86aed292261fdf4a8779e186a3820ea794b5477f722add"},
		{"parts", Options{LastHop: true}, "69a8a50767d06bcaa4ed451c5680ba7ef015956eb3e534bde6b7a57b88149ded"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := structureChurnDigest(t, c.opts); got != c.pinned {
				t.Errorf("churn digest %s, pinned %s: the engine's structure or numbering moved", got, c.pinned)
			}
		})
	}
}

// structureChurnDigest runs TestIncrementalStructurePin's churn under opts
// and returns the SHA-256 of its deltas and programs.
func structureChurnDigest(t *testing.T, opts Options) string {
	sp := testSpec(t)
	inc, err := NewIncremental(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := subscription.NewParser(sp)
	r := rand.New(rand.NewSource(23))
	atoms := []func() string{
		func() string { return fmt.Sprintf("stock == S%02d", r.Intn(12)) },
		func() string { return fmt.Sprintf("price > %d", 5*r.Intn(30)) },
		func() string { return fmt.Sprintf("price < %d", 40+5*r.Intn(30)) },
		func() string { return fmt.Sprintf("shares != %d", r.Intn(6)) },
		func() string { return fmt.Sprintf("avg(price, 1s) > %d", r.Intn(4)) },
	}
	actions := []func() string{
		func() string { return fmt.Sprintf("fwd(%d)", r.Intn(10)) },
		func() string { return fmt.Sprintf("fwd(%d)", r.Intn(10)) },
		func() string { return fmt.Sprintf("answerDNS(10.0.0.%d)", r.Intn(3)) },
	}
	h := sha256.New()
	var live []int
	for step := 0; step < 250; step++ {
		var add []*subscription.Rule
		var remove []int
		if len(live) > 10 && r.Intn(3) == 0 {
			i := r.Intn(len(live))
			remove = append(remove, live[i])
			live = append(live[:i], live[i+1:]...)
		}
		for n := r.Intn(3); n > 0; n-- {
			src := atoms[r.Intn(len(atoms))]()
			if r.Intn(3) > 0 {
				src += " and " + atoms[r.Intn(len(atoms))]()
			}
			rule, err := p.ParseRule(src+": "+actions[r.Intn(len(actions))](), step*4+n)
			if err != nil {
				t.Fatalf("step %d: ParseRule(%q): %v", step, src, err)
			}
			add = append(add, rule)
			live = append(live, rule.ID)
		}
		up, err := inc.Apply(add, remove)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		fmt.Fprintf(h, "%d +%d -%d =%d\n%s", step, up.AddedEntries, up.RemovedEntries, up.ReusedEntries, up.Program)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDuplicateRuleKeepsTables: a copy of a live rule under a new ID
// moves no root and changes no entry. The one-part itch.rules program
// comes back as the same pointer; the two-part int.rules program, whose
// part now lists the copy, comes back new with Program.SameTables, so
// the control plane leaves the switch's epoch alone.
func TestDuplicateRuleKeepsTables(t *testing.T) {
	for _, c := range []struct {
		name  string
		parts int
	}{{"itch", 1}, {"int", 2}} {
		t.Run(c.name, func(t *testing.T) {
			specSrc, err := os.ReadFile("../../cmd/camusc/testdata/" + c.name + ".spec")
			if err != nil {
				t.Fatal(err)
			}
			rulesSrc, err := os.ReadFile("../../cmd/camusc/testdata/" + c.name + ".rules")
			if err != nil {
				t.Fatal(err)
			}
			sp, err := spec.Parse(c.name+".spec", string(specSrc))
			if err != nil {
				t.Fatal(err)
			}
			rules := mustRules(t, sp, string(rulesSrc))
			inc, err := NewIncremental(sp, Options{LastHop: true})
			if err != nil {
				t.Fatal(err)
			}
			first, err := inc.Add(rules...)
			if err != nil {
				t.Fatal(err)
			}
			old, entries := first.Program, first.AddedEntries+first.ReusedEntries

			if len(old.Parts) != c.parts {
				t.Fatalf("%d parts, want %d", len(old.Parts), c.parts)
			}
			dup := *rules[0]
			dup.ID = 1000
			up, err := inc.Add(&dup)
			if err != nil {
				t.Fatal(err)
			}
			if up.AddedEntries != 0 || up.RemovedEntries != 0 || up.ReusedEntries != entries {
				t.Errorf("delta %d/%d/%d, want 0/0/%d", up.AddedEntries, up.RemovedEntries, up.ReusedEntries, entries)
			}
			if !up.Program.SameTables(old) {
				t.Error("the copy changed the tables")
			}
			if same := up.Program == old; same != (c.parts == 1) {
				t.Errorf("same pointer = %v, want %v", same, c.parts == 1)
			}
			if c.parts > 1 && !slices.ContainsFunc(up.Program.Parts, func(p Part) bool { return slices.Contains(p.Rules, 1000) }) {
				t.Errorf("no part lists the copy: %+v", up.Program.Parts)
			}
			m := spec.NewMessage(sp)
			for i := range sp.SubscribableFields() {
				m.SetIndex(i, spec.IntVal(int64(800+i)))
			}
			if got, want := up.Program.Eval(m, nil).Key(), old.Eval(m, nil).Key(); got != want {
				t.Errorf("Eval %s, before the copy %s", got, want)
			}
		})
	}
}
