// Package match models value constraints over packet fields: the sets of
// field values that satisfy a conjunction of canonical atomic predicates.
//
// Constraints serve three roles:
//
//   - in the BDD builder they are the per-field path contexts that drive
//     the domain-specific implication pruning (paper §V-C reduction iii);
//   - in the compiler they are the "range" column of the match-action
//     entries produced by Algorithm 2 ((state, range) → state);
//   - in the pipeline runtime they are the executable match expressions.
//
// Canonical relations are EQ, LT, GT for integers and EQ, PREFIX for
// strings; the remaining relations are expressed as negated outcomes of
// the canonical ones.
package match

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// Tri is a three-valued truth value returned by implication tests.
type Tri int

const (
	Unknown Tri = iota
	True
	False
)

func (t Tri) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// Constraint is the set of values a field may still take along a BDD path
// or within one compiled table entry. No compiled entry stands for "none
// of the other values": what no entry of a state matches takes the
// state's default row.
type Constraint interface {
	// Implies tests whether the constraint decides the canonical
	// predicate (rel ∈ {EQ, LT, GT, PREFIX}). It and With panic on any
	// other relation, or on PREFIX for an integer and LT or GT for a
	// string: the BDD's canonicalize passes parsed rules through in
	// canonical form only (bdd's TestOnlyCanonicalRelationsReachMatch).
	Implies(rel subscription.Relation, c spec.Value) Tri
	// With returns the constraint refined by the predicate outcome.
	// Constraints are immutable; a refinement that changes nothing (the
	// outcome was already implied, or an exclusion list is at
	// maxExclusions and the exclusion is dropped) returns the receiver
	// itself, so callers can detect it by identity.
	With(rel subscription.Relation, c spec.Value, outcome bool) Constraint
	// Matches reports whether a concrete value satisfies the constraint.
	Matches(v spec.Value) bool
	// Exact returns the single satisfying value, if the constraint pins
	// one — such entries compile to exact (SRAM) matches (§V-E).
	Exact() (spec.Value, bool)
	// TCAMEntries estimates how many TCAM entries realize the constraint
	// on a field of the given bit width (range-to-prefix expansion).
	TCAMEntries(bits int) int
	// Key returns a canonical encoding (memoization / dedup key).
	Key() string
	// Hash and Equal are Key without the formatting: Equal reports
	// whether o has the same Key, and Equal constraints Hash alike. The
	// BDD builder interns path contexts by them.
	Hash() uint64
	Equal(o Constraint) bool
}

// New returns the unconstrained ("match everything") constraint for a
// field value type.
func New(t spec.FieldType) Constraint {
	if t == spec.StringField {
		return &StrConstraint{}
	}
	return &IntConstraint{Lo: math.MinInt64, Hi: math.MaxInt64}
}

// maxExclusions caps the per-constraint exclusion lists. Workloads with
// tens of thousands of equality predicates on one field (e.g. 1M hICN
// content IDs) would otherwise build O(n)-sized lists copied O(n) times.
// Dropping exclusions only loosens a constraint, which is sound:
// implication tests lose a pruning opportunity, and a compiled entry may
// overlap the entries before it — the pipeline takes the first match in
// hi-before-lo path order, which is exactly BDD evaluation order, so
// semantics are unchanged. The compiler leaves out an entry that goes
// where its state's miss goes, except where such a later entry may
// overlap it: the miss would then not be what the value reaches.
const maxExclusions = 32

// ---------------------------------------------------------------------
// Integer constraints: an interval plus interior exclusions.
// ---------------------------------------------------------------------

// IntConstraint is [Lo,Hi] minus Excluded (sorted interior points).
type IntConstraint struct {
	Lo, Hi   int64
	Excluded []int64
}

func (ic *IntConstraint) isExcluded(v int64) bool {
	i := sort.Search(len(ic.Excluded), func(i int) bool { return ic.Excluded[i] >= v })
	return i < len(ic.Excluded) && ic.Excluded[i] == v
}

func (ic *IntConstraint) singleton() (int64, bool) {
	if ic.Lo == ic.Hi {
		return ic.Lo, true
	}
	return 0, false
}

// Implies implements Constraint.
func (ic *IntConstraint) Implies(rel subscription.Relation, c spec.Value) Tri {
	v := c.Int
	switch rel {
	case subscription.EQ:
		if p, ok := ic.singleton(); ok {
			if p == v {
				return True
			}
			return False
		}
		if v < ic.Lo || v > ic.Hi || ic.isExcluded(v) {
			return False
		}
		return Unknown
	case subscription.LT:
		if ic.Hi < v {
			return True
		}
		if ic.Lo >= v {
			return False
		}
		return Unknown
	case subscription.GT:
		if ic.Lo > v {
			return True
		}
		if ic.Hi <= v {
			return False
		}
		return Unknown
	default:
		panic("match: non-canonical int relation " + rel.String())
	}
}

// With implements Constraint.
func (ic *IntConstraint) With(rel subscription.Relation, c spec.Value, outcome bool) Constraint {
	v := c.Int
	n := IntConstraint{Lo: ic.Lo, Hi: ic.Hi, Excluded: ic.Excluded}
	switch rel {
	case subscription.EQ:
		if outcome {
			n.Lo, n.Hi = v, v
			n.Excluded = nil
		} else {
			n.exclude(v)
		}
	case subscription.LT:
		if outcome {
			if v-1 < n.Hi {
				n.Hi = v - 1
			}
		} else if v > n.Lo {
			n.Lo = v
		}
	case subscription.GT:
		if outcome {
			if v+1 > n.Lo {
				n.Lo = v + 1
			}
		} else if v < n.Hi {
			n.Hi = v
		}
	default:
		panic("match: non-canonical int relation " + rel.String())
	}
	n.normalize()
	// A refinement only ever narrows the bounds or adds one exclusion, so
	// equal bounds and an equally long list mean nothing changed.
	if n.Lo == ic.Lo && n.Hi == ic.Hi && len(n.Excluded) == len(ic.Excluded) {
		return ic
	}
	out := new(IntConstraint)
	*out = n
	return out
}

func (ic *IntConstraint) exclude(v int64) {
	if v < ic.Lo || v > ic.Hi {
		return
	}
	i := sort.Search(len(ic.Excluded), func(i int) bool { return ic.Excluded[i] >= v })
	if i < len(ic.Excluded) && ic.Excluded[i] == v {
		return
	}
	if len(ic.Excluded) >= maxExclusions && v != ic.Lo && v != ic.Hi {
		return // capacity: drop the exclusion (sound loosening)
	}
	out := make([]int64, 0, len(ic.Excluded)+1)
	out = append(out, ic.Excluded[:i]...)
	out = append(out, v)
	out = append(out, ic.Excluded[i:]...)
	ic.Excluded = out
}

func (ic *IntConstraint) normalize() {
	for ic.Lo <= ic.Hi && ic.isExcluded(ic.Lo) {
		ic.Lo++
	}
	for ic.Hi >= ic.Lo && ic.isExcluded(ic.Hi) {
		ic.Hi--
	}
	if len(ic.Excluded) > 0 {
		kept := ic.Excluded[:0:0]
		for _, v := range ic.Excluded {
			if v > ic.Lo && v < ic.Hi {
				kept = append(kept, v)
			}
		}
		ic.Excluded = kept
	}
}

// Matches implements Constraint.
func (ic *IntConstraint) Matches(v spec.Value) bool {
	if v.Kind != spec.IntField {
		return false
	}
	return v.Int >= ic.Lo && v.Int <= ic.Hi && !ic.isExcluded(v.Int)
}

// Exact implements Constraint.
func (ic *IntConstraint) Exact() (spec.Value, bool) {
	if p, ok := ic.singleton(); ok {
		return spec.IntVal(p), true
	}
	return spec.Value{}, false
}

// TCAMEntries implements Constraint: the allowed set is split at excluded
// points into maximal ranges, each expanded to prefix entries.
func (ic *IntConstraint) TCAMEntries(bits int) int {
	if _, ok := ic.singleton(); ok {
		return 1
	}
	lo := clampToBits(ic.Lo, bits)
	hi := clampToBits(ic.Hi, bits)
	if lo > hi {
		return 0
	}
	total := 0
	start := lo
	for _, x := range ic.Excluded {
		if x < start || x > hi {
			continue
		}
		if x > start {
			total += rangePrefixCount(uint64(start), uint64(x-1), bits)
		}
		start = x + 1
	}
	if start <= hi {
		total += rangePrefixCount(uint64(start), uint64(hi), bits)
	}
	return total
}

func clampToBits(v int64, bits int) int64 {
	if v < 0 {
		return 0
	}
	var max int64
	if bits >= 63 {
		max = math.MaxInt64
	} else {
		max = int64(1)<<uint(bits) - 1
	}
	if v > max {
		return max
	}
	return v
}

// rangePrefixCount counts the minimal prefix (ternary) entries covering
// the inclusive range [lo,hi] on a width-bit field — the classic
// range-to-TCAM expansion the paper's §V-E optimization avoids.
func rangePrefixCount(lo, hi uint64, bits int) int {
	if bits > 63 {
		bits = 63
	}
	count := 0
	for lo <= hi {
		// Largest power-of-two block starting at lo that fits in [lo,hi].
		size := uint64(1) << uint(bits)
		for size > 1 {
			if lo%size == 0 && lo+size-1 <= hi {
				break
			}
			size >>= 1
		}
		count++
		if lo+size-1 == math.MaxUint64 {
			break
		}
		lo += size
	}
	return count
}

// Key implements Constraint.
func (ic *IntConstraint) Key() string {
	buf := make([]byte, 0, 24+12*len(ic.Excluded))
	buf = append(buf, '[')
	buf = strconv.AppendInt(buf, ic.Lo, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, ic.Hi, 10)
	buf = append(buf, ']')
	for _, v := range ic.Excluded {
		buf = append(buf, '!')
		buf = strconv.AppendInt(buf, v, 10)
	}
	return string(buf)
}

func (ic *IntConstraint) String() string { return ic.Key() }

// Hash implements Constraint.
func (ic *IntConstraint) Hash() uint64 {
	h := hashWord(hashWord(fnvOffset, uint64(ic.Lo)), uint64(ic.Hi))
	for _, v := range ic.Excluded {
		h = hashWord(h, uint64(v))
	}
	return h
}

// Equal implements Constraint.
func (ic *IntConstraint) Equal(o Constraint) bool {
	oc, ok := o.(*IntConstraint)
	return ok && ic.Lo == oc.Lo && ic.Hi == oc.Hi && slices.Equal(ic.Excluded, oc.Excluded)
}

// ---------------------------------------------------------------------
// String constraints.
// ---------------------------------------------------------------------

// StrConstraint tracks exact-value knowledge, a required prefix, and
// excluded values/prefixes.
type StrConstraint struct {
	Known      string
	HasKnown   bool
	Required   string   // longest required prefix
	ExcludedEq []string // sorted excluded exact values
	ExcludedPx []string // sorted excluded prefixes
}

// Implies implements Constraint.
func (sc *StrConstraint) Implies(rel subscription.Relation, c spec.Value) Tri {
	v := c.Str
	if sc.HasKnown {
		var m bool
		switch rel {
		case subscription.EQ:
			m = sc.Known == v
		case subscription.PREFIX:
			m = strings.HasPrefix(sc.Known, v)
		default:
			panic("match: non-canonical string relation " + rel.String())
		}
		if m {
			return True
		}
		return False
	}
	switch rel {
	case subscription.EQ:
		if containsStr(sc.ExcludedEq, v) {
			return False
		}
		if sc.Required != "" && !strings.HasPrefix(v, sc.Required) {
			return False
		}
		for _, px := range sc.ExcludedPx {
			if strings.HasPrefix(v, px) {
				return False
			}
		}
		return Unknown
	case subscription.PREFIX:
		if sc.Required != "" && strings.HasPrefix(sc.Required, v) {
			return True
		}
		if sc.Required != "" && !strings.HasPrefix(v, sc.Required) {
			return False
		}
		for _, px := range sc.ExcludedPx {
			if strings.HasPrefix(v, px) {
				return False
			}
		}
		return Unknown
	default:
		panic("match: non-canonical string relation " + rel.String())
	}
}

// With implements Constraint.
func (sc *StrConstraint) With(rel subscription.Relation, c spec.Value, outcome bool) Constraint {
	v := c.Str
	if rel != subscription.EQ && rel != subscription.PREFIX {
		panic("match: non-canonical string relation " + rel.String())
	}
	if rel == subscription.EQ && outcome {
		if sc.HasKnown && sc.Known == v {
			return sc
		}
		return &StrConstraint{Known: v, HasKnown: true}
	}
	if sc.HasKnown {
		return sc // a pinned value decides every other predicate
	}
	req, eq, px := sc.Required, sc.ExcludedEq, sc.ExcludedPx
	switch {
	case rel == subscription.EQ:
		if len(eq) < maxExclusions {
			eq = insertStr(eq, v)
		}
	case outcome:
		if len(v) > len(req) {
			req = v
		}
	case len(px) < maxExclusions:
		px = insertStr(px, v)
	}
	if req == sc.Required && len(eq) == len(sc.ExcludedEq) && len(px) == len(sc.ExcludedPx) {
		return sc
	}
	return &StrConstraint{Required: req, ExcludedEq: eq, ExcludedPx: px}
}

// Matches implements Constraint.
func (sc *StrConstraint) Matches(v spec.Value) bool {
	if v.Kind != spec.StringField {
		return false
	}
	s := v.Str
	if sc.HasKnown {
		return s == sc.Known
	}
	if sc.Required != "" && !strings.HasPrefix(s, sc.Required) {
		return false
	}
	if containsStr(sc.ExcludedEq, s) {
		return false
	}
	for _, px := range sc.ExcludedPx {
		if strings.HasPrefix(s, px) {
			return false
		}
	}
	return true
}

// Exact implements Constraint.
func (sc *StrConstraint) Exact() (spec.Value, bool) {
	if sc.HasKnown {
		return spec.StrVal(sc.Known), true
	}
	return spec.Value{}, false
}

// TCAMEntries implements Constraint: one ternary entry for the required
// prefix (or a wildcard), plus one shadowing entry per exclusion.
func (sc *StrConstraint) TCAMEntries(int) int {
	if sc.HasKnown {
		return 1
	}
	return 1 + len(sc.ExcludedEq) + len(sc.ExcludedPx)
}

// Key implements Constraint.
func (sc *StrConstraint) Key() string {
	if sc.HasKnown {
		buf := make([]byte, 0, 3+len(sc.Known))
		buf = append(buf, '=')
		return string(strconv.AppendQuote(buf, sc.Known))
	}
	buf := make([]byte, 0, 16)
	buf = append(buf, '^')
	buf = strconv.AppendQuote(buf, sc.Required)
	for _, v := range sc.ExcludedEq {
		buf = append(buf, '!', '=')
		buf = strconv.AppendQuote(buf, v)
	}
	for _, v := range sc.ExcludedPx {
		buf = append(buf, '!', '^')
		buf = strconv.AppendQuote(buf, v)
	}
	return string(buf)
}

func (sc *StrConstraint) String() string { return sc.Key() }

// Hash implements Constraint.
func (sc *StrConstraint) Hash() uint64 {
	if sc.HasKnown {
		return hashString(fnvOffset+1, sc.Known)
	}
	h := hashString(fnvOffset, sc.Required)
	for _, v := range sc.ExcludedEq {
		h = hashString(h, v)
	}
	h = hashWord(h, uint64(len(sc.ExcludedEq)))
	for _, v := range sc.ExcludedPx {
		h = hashString(h, v)
	}
	return h
}

// Equal implements Constraint.
func (sc *StrConstraint) Equal(o Constraint) bool {
	oc, ok := o.(*StrConstraint)
	if !ok || sc.HasKnown != oc.HasKnown {
		return false
	}
	if sc.HasKnown {
		return sc.Known == oc.Known
	}
	return sc.Required == oc.Required &&
		slices.Equal(sc.ExcludedEq, oc.ExcludedEq) && slices.Equal(sc.ExcludedPx, oc.ExcludedPx)
}

// FNV-1a, folding in a word or a length-terminated string at a time.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return hashWord(h, uint64(len(s)))
}

func containsStr(sorted []string, v string) bool {
	i := sort.SearchStrings(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

func insertStr(sorted []string, v string) []string {
	i := sort.SearchStrings(sorted, v)
	if i < len(sorted) && sorted[i] == v {
		return sorted
	}
	out := make([]string, 0, len(sorted)+1)
	out = append(out, sorted[:i]...)
	out = append(out, v)
	out = append(out, sorted[i:]...)
	return out
}
