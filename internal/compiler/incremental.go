package compiler

import (
	"fmt"
	"slices"
	"time"

	"camus/internal/bdd"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Incremental is the dynamic-filter compiler the paper sketches in §V
// ("Supporting highly dynamic filters would require an incremental
// algorithm"): subscriptions are added and removed one at a time, the
// BDD engine reuses its memoized state across changes, and each update
// reports the control-plane *delta* — which table entries to install and
// which to delete — realizing the "table entry re-use" of [32]. A batch
// Compile is a fresh Incremental applied once.
type Incremental struct {
	opts   Options
	engine *bdd.Engine
	// live holds the IDs of the rules applied and not removed.
	live map[int]struct{}
	prog *Program
	// em carries the emitted blocks from one rebuild to the next; preds is
	// the universe's predicate count when prog was emitted.
	em    emitter
	preds int
}

// Update describes one incremental recompilation.
type Update struct {
	// Program is the new switch program.
	Program *Program
	// AddedEntries / RemovedEntries are the control-plane delta sizes;
	// ReusedEntries counts entries identical to the previous program
	// (no churn — the point of incrementality).
	AddedEntries   int
	RemovedEntries int
	ReusedEntries  int
	// Elapsed is the recompile time.
	Elapsed time.Duration
}

// NewIncremental creates an empty incremental compiler. Its engine seeds
// the field order Options.BDD.Order selects (bdd.NewEngine) and fails
// an Apply whose diagram would exceed Options.BDD.MaxNodes.
func NewIncremental(sp *spec.Spec, opts Options) (*Incremental, error) {
	inc := &Incremental{
		opts:   opts,
		engine: bdd.NewEngine(sp, opts.BDD),
		live:   make(map[int]struct{}),
	}
	// Start from the empty program.
	if _, err := inc.finish(time.Now()); err != nil {
		return nil, err
	}
	return inc, nil
}

// Program returns the current compiled program.
func (inc *Incremental) Program() *Program { return inc.prog }

// Rules returns the live rule IDs.
func (inc *Incremental) Rules() []int { return inc.engine.Rules() }

// Add inserts rules (keyed by Rule.ID) and recompiles.
func (inc *Incremental) Add(rules ...*subscription.Rule) (*Update, error) {
	return inc.Apply(rules, nil)
}

// Apply performs a coalesced batch of rule additions and removals with a
// single recompilation — the control plane's unit of work when several
// subscription events target one switch. On error the engine may hold a
// partially applied batch; callers recover by rebuilding from their rule
// registry (ctlplane falls back to a full recompile).
func (inc *Incremental) Apply(add []*subscription.Rule, remove []int) (*Update, error) {
	start := time.Now()
	for _, id := range remove {
		if _, ok := inc.live[id]; !ok {
			return nil, fmt.Errorf("%w: id %d", ErrUnknownRule, id)
		}
		inc.engine.Remove(id)
		delete(inc.live, id)
	}
	for _, r := range add {
		if _, dup := inc.live[r.ID]; dup {
			return nil, fmt.Errorf("%w: id %d", ErrDuplicateRule, r.ID)
		}
	}
	// Normalize the whole batch before touching the engine, so a rule that
	// does not normalize fails the batch with no addition applied.
	perRule := make([][]subscription.NormalizedRule, len(add))
	n := 0
	for i, r := range add {
		nrs, err := subscription.NormalizeRule(r)
		if err != nil {
			return nil, err
		}
		perRule[i] = nrs
		n += len(nrs)
	}
	// Expand and guard the batch into one slab and hand it to the engine in
	// one Add, so the fields it introduces are ordered together.
	batch := make([]subscription.NormalizedRule, 0, n)
	for i, r := range add {
		from := len(batch)
		expanded := expandStateful(perRule[i], inc.opts)
		if inc.opts.DisableValidityGuards {
			batch = append(batch, expanded...)
		} else {
			batch = injectValidityGuards(batch, expanded)
		}
		// Tag synthesized disjuncts with the owning rule ID so Remove
		// drops them together.
		for j := from; j < len(batch); j++ {
			batch[j].RuleID = r.ID
		}
		inc.live[r.ID] = struct{}{}
	}
	if err := inc.engine.Add(batch...); err != nil {
		return nil, err
	}
	return inc.finish(start)
}

// Remove deletes rules by ID and recompiles.
func (inc *Incremental) Remove(ids ...int) (*Update, error) {
	return inc.Apply(nil, ids)
}

// CacheSize reports what the engine retains across rebuilds: every BDD
// node it ever hash-consed and its merge tree's memo entries. Neither shrinks
// when rules leave, so a caller that churns an Incremental indefinitely
// watches them and starts over from a fresh one (ctlplane's compaction).
func (inc *Incremental) CacheSize() (nodes, memoEntries int) { return inc.engine.CacheSize() }

// CacheBytes reports the memory behind CacheSize's counts (see
// bdd.Engine.CacheBytes).
func (inc *Incremental) CacheBytes() int { return inc.engine.CacheBytes() }

func (inc *Incremental) finish(start time.Time) (*Update, error) {
	merge := inc.engine.MergeParts
	if inc.opts.OneDiagram {
		merge = inc.engine.Merge
	}
	d, err := merge()
	if err != nil {
		return nil, err
	}
	preds := len(d.Universe.Preds)
	// A batch whose merged diagrams have the previous roots (a duplicate or
	// subsumed rule, an add and remove that cancel) changes no entry. Table
	// kinds depend on the universe's predicates and BDD.DroppedRules on the
	// live rules' unsatisfiable disjuncts, hence the other two tests. When
	// a part's rule list moved too (a duplicate joined it), the program is
	// the previous one's tables under the new parts: Program.SameTables
	// holds, and a switch running the previous one need not install it.
	if old := inc.prog; old != nil && sameRoots(d, old.BDD) && preds == inc.preds &&
		d.DroppedRules == old.BDD.DroppedRules {
		if !sameRules(d, old.BDD) {
			np := *old
			np.BDD, np.Parts = d, parts(d)
			inc.prog = &np
		}
		return &Update{Program: inc.prog, ReusedEntries: inc.em.entries, Elapsed: time.Since(start)}, nil
	}
	prog, delta, err := inc.em.emit(d, inc.opts)
	if err != nil {
		return nil, err
	}
	inc.prog, inc.preds = prog, preds
	return &Update{
		Program:        prog,
		AddedEntries:   delta.added,
		RemovedEntries: delta.removed,
		ReusedEntries:  delta.reused,
		Elapsed:        time.Since(start),
	}, nil
}

// sameRoots reports whether two diagrams of one engine have the same
// parts, root by root; sameRules whether their parts hold the same rules.
func sameRoots(a, b *bdd.BDD) bool {
	return slices.EqualFunc(a.Parts, b.Parts, func(x, y bdd.Part) bool { return x.Root == y.Root })
}

func sameRules(a, b *bdd.BDD) bool {
	return slices.EqualFunc(a.Parts, b.Parts, func(x, y bdd.Part) bool { return slices.Equal(x.Rules, y.Rules) })
}
