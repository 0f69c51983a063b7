package pipeline

import (
	"fmt"
	"time"

	"camus/internal/spec"
)

// Parser turns wire bytes into decoded application messages — the
// programmable parse graph of §VI. Format packages provide
// implementations (e.g. the batched MoldUDP/ITCH parser).
type Parser interface {
	// Parse decodes a packet into its application messages.
	Parse(data []byte) ([]*spec.Message, error)
}

// ParserFunc adapts a function to Parser.
type ParserFunc func(data []byte) ([]*spec.Message, error)

// Parse implements Parser.
func (f ParserFunc) Parse(data []byte) ([]*spec.Message, error) { return f(data) }

// SetParser installs the wire-format parser used by ProcessBytes. Call
// before traffic starts.
func (s *Switch) SetParser(p Parser) { s.parser = p }

// ProcessBytes runs a raw packet through the parser and the pipeline —
// the full dataplane path: parse deep (§VI-B), evaluate, replicate,
// prune (§VI-A).
func (s *Switch) ProcessBytes(data []byte, in int, now time.Duration) ([]Delivery, error) {
	if s.parser == nil {
		return nil, fmt.Errorf("pipeline: switch %s has no parser installed", s.ID)
	}
	msgs, err := s.parser.Parse(data)
	if err != nil {
		s.count(StatsSnapshot{ParseErrors: 1})
		return nil, fmt.Errorf("pipeline: %s: %w", s.ID, err)
	}
	return s.Process(&Packet{In: in, Msgs: msgs, Bytes: len(data)}, now), nil
}
