// Package subscription implements the Camus packet-subscription language
// (paper §II, Fig. 1): filters that are logical expressions of constraints
// on packet attributes or state variables, each constraint comparing an
// attribute (or an aggregate of one) with a constant, plus a forwarding
// action. It provides the lexer/parser, type checking against a message
// spec, disjunctive-normal-form normalization, and reference evaluation.
package subscription

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"camus/internal/spec"
)

// Relation is the comparison relation of an atomic constraint. The
// language supports basic relations over numbers (equality and ordering)
// and over strings (equality and prefix).
type Relation int

const (
	EQ Relation = iota
	NE
	LT
	LE
	GT
	GE
	PREFIX
)

func (r Relation) String() string {
	switch r {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case PREFIX:
		return "prefix"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Negate returns the complementary relation. Negating PREFIX has no
// single-relation complement and is rejected during parsing, so it cannot
// reach here.
func (r Relation) Negate() Relation {
	switch r {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	default:
		panic("subscription: relation " + r.String() + " has no negation")
	}
}

// RefKind distinguishes packet-field operands from stateful aggregates.
type RefKind int

const (
	// PacketRef reads a header field from the packet.
	PacketRef RefKind = iota
	// AggregateRef reads a state variable: an aggregation (count/sum/avg)
	// over a tumbling window, updated when the rest of the filter matches
	// (paper §II). Aggregates are evaluated only at the last-hop switch.
	AggregateRef
	// ValidityRef reads a header validity bit set by the packet parser
	// (P4's isValid()). The compiler guards every rule with validity
	// predicates on the headers it references, so rules never match
	// packets lacking their headers.
	ValidityRef
)

// FieldRef is the left operand of a constraint.
type FieldRef struct {
	Kind RefKind
	// Field is the packet field read (PacketRef) or aggregated over
	// (AggregateRef with sum/avg). Nil for count() aggregates.
	Field *spec.Field
	// Agg is the aggregation function (AggregateRef only).
	Agg spec.AggFunc
	// Window is the tumbling window (AggregateRef only).
	Window time.Duration
	// Var is the declared @counter state variable backing the aggregate,
	// if the subscription referenced one by name; otherwise empty and the
	// aggregate is keyed by its canonical expression.
	Var string
	// Header is the header whose validity bit is read (ValidityRef only).
	Header string
}

// ValidRef builds a header-validity reference.
func ValidRef(header string) FieldRef {
	return FieldRef{Kind: ValidityRef, Header: header}
}

// ValidAtom builds the guard atom "valid(header) == 1".
func ValidAtom(header string) *Atom {
	return &Atom{Ref: ValidRef(header), Rel: EQ, Const: spec.IntVal(1)}
}

// DefaultWindow is used for aggregate macros written without an explicit
// window and not bound to a declared @counter.
const DefaultWindow = 100 * time.Millisecond

// Key returns a canonical identity for the referenced value: equal keys
// share a BDD variable group and (for aggregates) a state register.
func (r FieldRef) Key() string {
	if r.Kind == PacketRef {
		return r.Field.QName()
	}
	if r.Kind == ValidityRef {
		return "valid(" + r.Header + ")"
	}
	if r.Var != "" {
		return fmt.Sprintf("%s(%s)@%s", r.Agg, r.Var, r.Window)
	}
	arg := ""
	if r.Field != nil {
		arg = r.Field.QName()
	}
	return fmt.Sprintf("%s(%s)@%s", r.Agg, arg, r.Window)
}

func (r FieldRef) String() string {
	if r.Kind == PacketRef {
		return r.Field.QName()
	}
	if r.Kind == ValidityRef {
		return "valid(" + r.Header + ")"
	}
	arg := ""
	if r.Var != "" {
		arg = r.Var
	} else if r.Field != nil {
		arg = r.Field.Name
	}
	return fmt.Sprintf("%s(%s)", r.Agg, arg)
}

// Type returns the value type of the operand. Aggregates and validity
// bits are numeric.
func (r FieldRef) Type() spec.FieldType {
	if r.Kind == AggregateRef || r.Kind == ValidityRef {
		return spec.IntField
	}
	return r.Field.Type
}

// Expr is a filter expression node.
type Expr interface {
	exprNode()
	String() string
}

// Atom is an atomic constraint: operand relation constant.
type Atom struct {
	Ref   FieldRef
	Rel   Relation
	Const spec.Value
}

func (*Atom) exprNode() {}

func (a *Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Ref, a.Rel, a.Const)
}

// Key returns a canonical identity for the atom (used to deduplicate BDD
// predicate variables across rules).
func (a *Atom) Key() string {
	return fmt.Sprintf("%s %s %s", a.Ref.Key(), a.Rel, a.Const)
}

// And is a conjunction of one or more subexpressions.
type And struct{ Terms []Expr }

func (*And) exprNode() {}

func (e *And) String() string { return joinExpr(e.Terms, " and ") }

// Or is a disjunction of one or more subexpressions.
type Or struct{ Terms []Expr }

func (*Or) exprNode() {}

func (e *Or) String() string { return joinExpr(e.Terms, " or ") }

// Not is logical negation (pushed to atoms during normalization).
type Not struct{ Term Expr }

func (*Not) exprNode() {}

func (e *Not) String() string { return "not (" + e.Term.String() + ")" }

// Bool is a constant true/false filter. The MR routing policy installs the
// constant-true filter on up ports (paper §IV-C).
type Bool struct{ Value bool }

func (*Bool) exprNode() {}

func (e *Bool) String() string {
	if e.Value {
		return "true"
	}
	return "false"
}

// True is the filter matching every packet.
var True Expr = &Bool{Value: true}

func joinExpr(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		if _, isAtom := t.(*Atom); isAtom {
			parts[i] = t.String()
		} else if b, isBool := t.(*Bool); isBool {
			parts[i] = b.String()
		} else {
			parts[i] = "(" + t.String() + ")"
		}
	}
	return strings.Join(parts, sep)
}

// Rule is a subscription with its forwarding directive — the controller's
// intermediate representation, e.g. "stock == GOOGL: fwd(1)".
type Rule struct {
	// ID is assigned by the caller (e.g. subscription arrival order).
	ID int
	// Filter is the subscription predicate.
	Filter Expr
	// Action is the forwarding directive.
	Action Action
}

func (r *Rule) String() string {
	return fmt.Sprintf("%s: %s", r.Filter, r.Action)
}

// Action is a forwarding directive attached to a rule.
type Action struct {
	// Name is the action name: "fwd" for forwarding, or a user-registered
	// custom action such as "answerDNS" (§VIII-C5).
	Name string
	// Ports are the egress ports for fwd actions.
	Ports []int
	// Args are the raw arguments for custom actions.
	Args []string
}

// FwdAction builds a standard forwarding action.
func FwdAction(ports ...int) Action {
	sorted := append([]int(nil), ports...)
	sort.Ints(sorted)
	return Action{Name: "fwd", Ports: sorted}
}

// IsFwd reports whether the action is a standard forwarding action.
func (a Action) IsFwd() bool { return a.Name == "fwd" }

func (a Action) String() string {
	if a.IsFwd() {
		parts := make([]string, len(a.Ports))
		for i, p := range a.Ports {
			parts[i] = fmt.Sprintf("%d", p)
		}
		return "fwd(" + strings.Join(parts, ",") + ")"
	}
	args := make([]string, len(a.Args))
	for i, arg := range a.Args {
		if args[i] = arg; !bareArg(arg) {
			args[i] = strconv.Quote(arg)
		}
	}
	return a.Name + "(" + strings.Join(args, ",") + ")"
}

// bareArg reports whether the lexer reads arg back as one unquoted action
// argument: an identifier, a number or an IPv4 address whose text is arg.
// Every other argument prints quoted, so a printed action parses back to
// itself and two actions print alike only when they are Equal.
func bareArg(arg string) bool {
	t, err := newLexer(arg).next()
	return err == nil && t.text == arg && (t.kind == tokIdent || t.kind == tokNumber || t.kind == tokIP)
}

// Key returns a canonical identity for the action, used when merging the
// actions of multiple rules matching the same packet. Two actions the
// parser makes (a fwd action carries only ports, a custom one only
// arguments) have one Key exactly when they are Equal.
func (a Action) Key() string { return a.String() }

// Equal reports whether two actions are the same action: one name, one
// port list and one argument list. It allocates nothing.
func (a Action) Equal(b Action) bool {
	return a.Name == b.Name && slices.Equal(a.Ports, b.Ports) && slices.Equal(a.Args, b.Args)
}
