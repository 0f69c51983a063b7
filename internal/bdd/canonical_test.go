package bdd

import (
	"fmt"
	"slices"
	"testing"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// TestOnlyCanonicalRelationsReachMatch audits match's five
// non-canonical-relation panics (IntConstraint.Implies and With,
// StrConstraint.Implies twice and With). It writes every relation on an
// integer field, an aggregate and a string field, plain and under not.
// Each atom the parser accepts and NormalizeRule keeps reaches a
// constraint through canonicalize only as EQ, LT or GT on integers and EQ
// or PREFIX on strings. Every accepted atom, alone and in pairs on the
// same field, merges without a panic. The atoms the parser refuses are
// named, so a parser that starts to accept one fails here first.
func TestOnlyCanonicalRelationsReachMatch(t *testing.T) {
	sp := spec.MustParse("rel", `
header h {
    n : u16 @field;
    s : str8 @field;
}
`)
	canonical := map[spec.FieldType][]subscription.Relation{
		spec.IntField:    {subscription.EQ, subscription.LT, subscription.GT},
		spec.StringField: {subscription.EQ, subscription.PREFIX},
	}
	// The atoms the parser refuses, and those NormalizeRule refuses.
	refused := map[string]bool{
		"n prefix 7": true, "not (n prefix 7)": true,
		"avg(n, 1s) prefix 7": true, "not (avg(n, 1s) prefix 7)": true,
		"s < AB": true, "s <= AB": true, "s > AB": true, "s >= AB": true,
		"not (s < AB)": true, "not (s <= AB)": true, "not (s > AB)": true, "not (s >= AB)": true,
	}
	unnormalized := map[string]bool{"not (s prefix AB)": true}

	for _, f := range []struct{ operand, c string }{{"n", "7"}, {"avg(n, 1s)", "7"}, {"s", "AB"}} {
		var kept []string
		for _, rel := range []string{"==", "!=", "<", "<=", ">", ">=", "prefix"} {
			for _, form := range []string{"%s", "not (%s)"} {
				atom := fmt.Sprintf(form, f.operand+" "+rel+" "+f.c)
				r, err := subscription.NewParser(sp).ParseRule(atom+": fwd(1)", 1)
				if (err != nil) != refused[atom] {
					t.Errorf("%s: parse error %v, want refused %v", atom, err, refused[atom])
				}
				if err != nil {
					continue
				}
				nrs, err := subscription.NormalizeRule(r)
				if (err != nil) != unnormalized[atom] {
					t.Errorf("%s: normalize error %v, want refused %v", atom, err, unnormalized[atom])
				}
				if err != nil {
					continue
				}
				kept = append(kept, atom)
				for _, nr := range nrs {
					for _, a := range nr.Conj {
						rel, c, _, err := canonicalize(a)
						if err != nil || !slices.Contains(canonical[a.Ref.Type()], rel) || c.Kind != a.Ref.Type() {
							t.Errorf("%s: atom %s reaches match as %s %v (%v)", atom, a, rel, c, err)
						}
					}
				}
			}
		}
		// Alone and in pairs, so that each canonical relation both
		// refines a context (With) and is decided by one (Implies).
		src := ""
		for i, a := range kept {
			src += a + ": fwd(1)\n"
			for _, b := range kept[i+1:] {
				src += a + " and " + b + ": fwd(2)\n"
			}
		}
		if _, err := buildRules(sp, parseRules(t, sp, src), Options{}); err != nil {
			t.Errorf("%s: %v", f.operand, err)
		}
	}
}
