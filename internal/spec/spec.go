// Package spec models application message-format specifications: the Go
// equivalent of the annotated P4 header specification that Camus users
// provide (paper §V-A, Fig. 4).
//
// A Spec declares a sequence of fixed-width headers, each with typed
// fields. Fields carry annotations that guide the compiler:
//
//   - @field        — the field may be used in subscriptions (range match)
//   - @field_exact  — usable in subscriptions, equality-only (SRAM match)
//   - @counter(n,w) — declares state variable n with tumbling window w
//
// The static compiler consumes a Spec once per application to lay out the
// pipeline; the dynamic compiler type-checks subscriptions against it.
package spec

import (
	"fmt"
	"strings"
	"time"
)

// FieldType is the type of a header field value.
type FieldType int

const (
	// IntField is an unsigned fixed-width integer field (uN).
	IntField FieldType = iota
	// StringField is a fixed-width byte-string field (strN), compared as
	// a right-space-padded ASCII string (as in ITCH stock symbols).
	StringField
)

func (t FieldType) String() string {
	switch t {
	case IntField:
		return "int"
	case StringField:
		return "string"
	default:
		return fmt.Sprintf("FieldType(%d)", int(t))
	}
}

// MatchHint tells the compiler which table implementation a field needs.
// It mirrors the paper's §V-E TCAM-saving optimization: fields annotated
// @field_exact compile to exact-match (SRAM) tables; default fields allow
// arbitrary range predicates and may need range/ternary (TCAM) entries.
type MatchHint int

const (
	// MatchRange permits <, >, <=, >=, ==, != predicates (TCAM ranges).
	MatchRange MatchHint = iota
	// MatchExact permits only == and != predicates (SRAM exact match).
	MatchExact
	// MatchPrefix permits prefix and equality predicates on strings or
	// longest-prefix matches on ints (LPM table).
	MatchPrefix
)

func (h MatchHint) String() string {
	switch h {
	case MatchRange:
		return "range"
	case MatchExact:
		return "exact"
	case MatchPrefix:
		return "prefix"
	default:
		return fmt.Sprintf("MatchHint(%d)", int(h))
	}
}

// AggFunc is a stateful aggregation function over a tumbling window
// (paper §II: count, sum, avg — the restricted stateful vocabulary).
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
)

func (f AggFunc) String() string {
	switch f {
	case AggNone:
		return "none"
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// ParseAggFunc maps a subscription-language macro name to an AggFunc.
func ParseAggFunc(name string) (AggFunc, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	default:
		return AggNone, false
	}
}

// Field is one subscription-visible header field.
type Field struct {
	// Header is the name of the header this field belongs to.
	Header string
	// Name is the field name within the header.
	Name string
	// Type is the field value type.
	Type FieldType
	// Bits is the field width: bits for IntField, bytes*8 for StringField.
	Bits int
	// Hint constrains which predicates subscriptions may use on the field.
	Hint MatchHint
	// Subscribable reports whether the field carried a @field annotation;
	// non-subscribable fields exist in the header layout but cannot be
	// referenced by filters.
	Subscribable bool
	// Offset is the bit offset of the field within its header.
	Offset int
}

// QName returns the qualified "header.field" name.
func (f *Field) QName() string { return f.Header + "." + f.Name }

// Bytes returns the byte width of the field (Bits rounded up).
func (f *Field) Bytes() int { return (f.Bits + 7) / 8 }

// MaxValue returns the maximum representable value of an IntField.
// Values wider than 63 bits saturate at MaxInt64 (the evaluation never
// compares such fields numerically; they are equality-only).
func (f *Field) MaxValue() int64 {
	if f.Bits >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(f.Bits) - 1
}

// Header is a fixed-width protocol header: an ordered list of fields.
type Header struct {
	Name   string
	Fields []*Field
	// Counters declared inside this header via @counter annotations.
	Counters []*StateVar
}

// Bits returns the total header width in bits.
func (h *Header) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Bits
	}
	return n
}

// Bytes returns the total header width in bytes (must be byte aligned for
// wire encoding; the parser enforces this).
func (h *Header) Bytes() int { return (h.Bits() + 7) / 8 }

// StateVar is a named state variable with a tumbling window, declared by a
// @counter annotation (paper Fig. 4 line 11). The aggregation function is
// bound dynamically by subscriptions that reference the variable.
type StateVar struct {
	Name   string
	Window time.Duration
}

// Spec is a full application message-format specification.
type Spec struct {
	// Name identifies the application (e.g. "itch").
	Name string
	// Headers in parse order. The subscription-visible field order — which
	// fixes the BDD variable order (§V-C) — is the declaration order of
	// @field-annotated fields across headers.
	Headers []*Header

	fieldsByQName map[string]*Field
	fieldsByName  map[string]*Field // unqualified, only if unambiguous
	subscribable  []*Field
	subIndex      map[*Field]int
	stateVars     map[string]*StateVar

	// Message layout: subHeader is the header index of each subscribable
	// field and subString whether it is a string; maskWords is the length
	// of a message's bit vector (one bit per subscribable field, then one
	// per header); wideWords is the length of the out-of-line block of a
	// message too wide for the struct (bit words, then field words), 0
	// when it fits.
	subHeader []int
	subString []bool
	maskWords int
	wideWords int
}

// New assembles a Spec from headers, validating names and computing
// offsets. It returns an error on duplicate headers/fields or non-byte-
// aligned headers.
func New(name string, headers ...*Header) (*Spec, error) {
	s := &Spec{
		Name:          name,
		Headers:       headers,
		fieldsByQName: make(map[string]*Field),
		fieldsByName:  make(map[string]*Field),
		subIndex:      make(map[*Field]int),
		stateVars:     make(map[string]*StateVar),
	}
	ambiguous := make(map[string]bool)
	seenHeader := make(map[string]bool)
	for hi, h := range headers {
		if h.Name == "" {
			return nil, fmt.Errorf("spec %s: header with empty name", name)
		}
		if seenHeader[h.Name] {
			return nil, fmt.Errorf("spec %s: duplicate header %q", name, h.Name)
		}
		seenHeader[h.Name] = true
		off := 0
		for _, f := range h.Fields {
			f.Header = h.Name
			f.Offset = off
			off += f.Bits
			if f.Bits <= 0 {
				return nil, fmt.Errorf("%s: field width must be positive", f.QName())
			}
			if f.Type == StringField && f.Bits%8 != 0 {
				return nil, fmt.Errorf("%s: string fields must be byte aligned", f.QName())
			}
			q := f.QName()
			if _, dup := s.fieldsByQName[q]; dup {
				return nil, fmt.Errorf("spec %s: duplicate field %q", name, q)
			}
			s.fieldsByQName[q] = f
			if _, dup := s.fieldsByName[f.Name]; dup {
				ambiguous[f.Name] = true
			} else {
				s.fieldsByName[f.Name] = f
			}
			if f.Subscribable {
				s.subIndex[f] = len(s.subscribable)
				s.subscribable = append(s.subscribable, f)
				s.subHeader = append(s.subHeader, hi)
				s.subString = append(s.subString, f.Type == StringField)
			}
		}
		if off%8 != 0 {
			return nil, fmt.Errorf("spec %s: header %q is %d bits, not byte aligned", name, h.Name, off)
		}
		for _, sv := range h.Counters {
			if _, dup := s.stateVars[sv.Name]; dup {
				return nil, fmt.Errorf("spec %s: duplicate state variable %q", name, sv.Name)
			}
			s.stateVars[sv.Name] = sv
		}
	}
	for n := range ambiguous {
		delete(s.fieldsByName, n)
	}
	s.maskWords = (len(s.subscribable)+len(headers))/64 + 1
	if s.maskWords > 1 || len(s.subscribable) > inlineFields {
		s.wideWords = s.maskWords + len(s.subscribable)
	}
	return s, nil
}

// MustNew is New, panicking on error; for package-level format definitions.
func MustNew(name string, headers ...*Header) *Spec {
	s, err := New(name, headers...)
	if err != nil {
		panic(err)
	}
	return s
}

// Field resolves a field reference. Both qualified ("itch_order.price")
// and unqualified-but-unambiguous ("price") names are accepted, matching
// the paper's subscription examples which use bare field names.
func (s *Spec) Field(ref string) (*Field, bool) {
	if f, ok := s.fieldsByQName[ref]; ok {
		return f, true
	}
	f, ok := s.fieldsByName[ref]
	return f, ok
}

// SubscribableFields returns the @field-annotated fields in declaration
// order. This order fixes the BDD variable order.
func (s *Spec) SubscribableFields() []*Field { return s.subscribable }

// SubscribableIndex returns f's index within SubscribableFields.
func (s *Spec) SubscribableIndex(f *Field) (int, bool) {
	i, ok := s.subIndex[f]
	return i, ok
}

// StateVar resolves a declared state variable by name.
func (s *Spec) StateVar(name string) (*StateVar, bool) {
	sv, ok := s.stateVars[name]
	return sv, ok
}

// StateVars returns all declared state variables.
func (s *Spec) StateVars() []*StateVar {
	out := make([]*StateVar, 0, len(s.stateVars))
	for _, h := range s.Headers {
		out = append(out, h.Counters...)
	}
	return out
}

// Header returns the named header.
func (s *Spec) Header(name string) (*Header, bool) {
	for _, h := range s.Headers {
		if h.Name == name {
			return h, true
		}
	}
	return nil, false
}

// HeaderIndex returns the position of the named header in parse order,
// or -1 if unknown.
func (s *Spec) HeaderIndex(name string) int {
	for i, h := range s.Headers {
		if h.Name == name {
			return i
		}
	}
	return -1
}

// HeaderBits returns, in the layout of a message's bit vector, the bits a
// parser sets when it extracts header i: the presence of each of the
// header's subscribable fields and the header's validity. A wire codec
// computes it once and hands it to Message.Fill per message.
func (s *Spec) HeaderBits(i int) []uint64 {
	bits := make([]uint64, s.maskWords)
	set := func(b int) { bits[b>>6] |= 1 << (b & 63) }
	for idx, hi := range s.subHeader {
		if hi == i {
			set(idx)
		}
	}
	set(len(s.subscribable) + i)
	return bits
}

// Merge combines several application specs into one (used when multiple
// applications co-exist on a switch, §VIII-D). Header names must not
// collide.
func Merge(name string, specs ...*Spec) (*Spec, error) {
	var headers []*Header
	for _, sp := range specs {
		headers = append(headers, sp.Headers...)
	}
	return New(name, headers...)
}
