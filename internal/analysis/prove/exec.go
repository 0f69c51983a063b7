package prove

import (
	"camus/internal/spec"
	"camus/internal/subscription"
)

// pathResult is one complete symbolic execution of the pipeline: the
// accumulated path constraint and the leaf reached (nil = drop with no
// leaf row).
type pathResult struct {
	c    *pctx
	leaf *Leaf
}

// explore symbolically executes the program as a decision DAG from an
// initial context, branching at every stage on the entry domains, the
// residual value region (values no entry covers — the compiler stores
// no entry that goes where the stage default goes) and header absence.
// It mirrors the compiled walk exactly: first matching entry wins; a
// miss takes the stage default; states outside the stage pass through.
//
// It walks from the first part's entry state alone: a checker's view of
// the program holds one part (Program.from), and exploreAll continues
// the paths through the other parts.
//
// Returns the completed paths and whether the budget was exhausted
// (in which case the path list is partial).
func (p *Program) explore(c0 *pctx, budget int) ([]pathResult, bool) {
	type frame struct {
		stage int
		state int32
		c     *pctx
	}
	stack := []frame{{0, p.Parts[0].Init, c0}}
	var out []pathResult
	overflow := false
	for len(stack) > 0 {
		if budget <= 0 {
			overflow = true
			break
		}
		budget--
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.stage >= len(p.Stages) {
			out = append(out, pathResult{c: fr.c, leaf: p.leafByState[fr.state]})
			continue
		}
		st := p.Stages[fr.stage]
		entries, in := st.byState[fr.state]
		if !in {
			// Pass-through: the state does not enter this stage.
			stack = append(stack, frame{fr.stage + 1, fr.state, fr.c})
			continue
		}
		missOut := fr.state
		if d, ok := st.Defaults[fr.state]; ok {
			missOut = d
		}
		push := func(c *pctx, state int32) {
			if c != nil {
				stack = append(stack, frame{fr.stage + 1, state, c})
			}
		}
		switch st.Ref.Kind {
		case subscription.ValidityRef:
			// The validity bit always exists; its value is the header's
			// presence. For each feasible bit, the first entry containing
			// it wins, otherwise the default.
			h := st.Ref.Header
			for _, bit := range []int64{1, 0} {
				c := fr.c.withPresence(h, bit == 1)
				if c == nil {
					continue
				}
				next := missOut
				for _, e := range entries {
					if e.Int.Contains(bit) {
						next = e.Out
						break
					}
				}
				push(c, next)
			}
		case subscription.AggregateRef:
			// Aggregates always exist. First-match-wins over the entry
			// list, then the residual region to the default.
			key := st.Ref.Key()
			remaining := fr.c.aggDom(key)
			for _, e := range entries {
				hit := remaining.Intersect(e.Int)
				if !hit.IsEmpty() {
					push(fr.c.withAggDom(key, hit), e.Out)
				}
				remaining = remaining.Subtract(e.Int)
				if remaining.IsEmpty() {
					break
				}
			}
			if !remaining.IsEmpty() {
				push(fr.c.withAggDom(key, remaining), missOut)
			}
		default: // PacketRef
			f := st.Ref.Field
			h := f.Header
			if present := fr.c.withPresence(h, true); present != nil {
				if f.Type == spec.StringField {
					remaining := present.strDom(f)
					for _, e := range entries {
						hit := remaining.Intersect(e.Str)
						if !hit.EmptyFor(f.Bytes()) {
							push(present.withStrDom(f, hit), e.Out)
						}
						remaining = remaining.Subtract(e.Str)
						if remaining.EmptyFor(f.Bytes()) {
							break
						}
					}
					if !remaining.EmptyFor(f.Bytes()) {
						push(present.withStrDom(f, remaining), missOut)
					}
				} else {
					remaining := present.intDom(f)
					for _, e := range entries {
						hit := remaining.Intersect(e.Int)
						if !hit.IsEmpty() {
							push(present.withIntDom(f, hit), e.Out)
						}
						remaining = remaining.Subtract(e.Int)
						if remaining.IsEmpty() {
							break
						}
					}
					if !remaining.IsEmpty() {
						push(present.withIntDom(f, remaining), missOut)
					}
				}
			}
			// Header absent: every predicate false, take the default.
			push(fr.c.withPresence(h, false), missOut)
		}
	}
	return out, overflow
}
