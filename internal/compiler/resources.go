package compiler

import (
	"fmt"

	"camus/internal/subscription"
)

// Switch resource budgets modeling a Tofino-class programmable ASIC
// pipeline (per pipe). Absolute sizes are a stand-in for the testbed
// hardware; Table I compares *relative* usage, which these preserve.
const (
	// SRAMBudgetBytes is the exact-match (SRAM) budget.
	SRAMBudgetBytes = 15 << 20 // 15 MiB
	// TCAMBudgetBytes is the ternary (TCAM) budget.
	TCAMBudgetBytes = 768 << 10 // 0.75 MiB
	// MulticastGroupBudget is the number of multicast groups supported.
	MulticastGroupBudget = 65536
	// MaxPipelineStages is the number of match-action stages available.
	MaxPipelineStages = 12
	// RegisterBudget is the number of stateful registers (aggregate
	// windows) the pipe supports; stateful ALUs are the scarcest
	// resource on the modeled ASIC.
	RegisterBudget = 4
	// stateBytes is the width of the BDD-state metadata carried between
	// stages.
	stateBytes = 4
	// actionBytes is the per-entry action/next-state storage.
	actionBytes = 4
	// tcamOverheadFactor models TCAM cell cost relative to SRAM (value +
	// mask storage).
	tcamOverheadFactor = 2
)

// Resources summarizes the switch resources a compiled program consumes —
// the columns of Table I.
type Resources struct {
	// Entries is the total number of control-plane entries installed.
	Entries int
	// SRAMBytes / TCAMBytes are the estimated memory footprints.
	SRAMBytes int
	TCAMBytes int
	// SRAMPct / TCAMPct are percentages of the modeled budgets.
	SRAMPct float64
	TCAMPct float64
	// MulticastGroups is the number of replication groups, Egress.Groups().
	MulticastGroups int
	// Stages is the number of match-action stages used (fields + leaf).
	Stages int
	// Registers is the number of stateful registers allocated.
	Registers int
}

// Fits reports whether the program fits the modeled switch. All five
// declared budgets are enforced: memory (SRAM/TCAM), multicast groups,
// pipeline stages, and stateful registers.
func (r Resources) Fits() bool {
	return r.SRAMBytes <= SRAMBudgetBytes &&
		r.TCAMBytes <= TCAMBudgetBytes &&
		r.MulticastGroups <= MulticastGroupBudget &&
		r.Stages <= MaxPipelineStages &&
		r.Registers <= RegisterBudget
}

func (r Resources) String() string {
	return fmt.Sprintf("entries=%d sram=%.2f%% tcam=%.2f%% mcast=%d stages=%d regs=%d",
		r.Entries, r.SRAMPct, r.TCAMPct, r.MulticastGroups, r.Stages, r.Registers)
}

// LeafEntryBytes is the SRAM cost of one leaf-table row: exact match on
// the BDD state plus the action/group word.
const LeafEntryBytes = stateBytes + 8

// TableCost is the per-table slice of the Resources estimate — the unit
// the layout analyzer (internal/analysis/fitcheck) packs into stages.
type TableCost struct {
	// SRAMBytes / TCAMBytes are the table's memory footprint.
	SRAMBytes int
	TCAMBytes int
	// KeyBits is the match-key width presented to the stage crossbar
	// (state metadata + field).
	KeyBits int
	// Entries is the number of control-plane entries (rows + value-map
	// ranges + defaults).
	Entries int
}

// fieldWidth returns the field byte width and match-key bit count used
// by the cost model for a stage table.
func fieldWidth(t *Table) (fieldBytes, bits int) {
	fieldBytes = 4
	switch t.Field.Ref.Kind {
	case subscription.PacketRef:
		fieldBytes = t.Field.Ref.Field.Bytes()
	case subscription.ValidityRef:
		fieldBytes = 1
	}
	bits = fieldBytes * 8
	if t.Field.Ref.Kind == subscription.PacketRef {
		bits = t.Field.Ref.Field.Bits
	}
	return fieldBytes, bits
}

// CostOf computes the resource footprint of a single stage table. The
// whole-program estimate and the fitcheck layout analyzer both consume
// this so the cost model has one definition.
func CostOf(t *Table) TableCost {
	fieldBytes, bits := fieldWidth(t)
	keyBytes := stateBytes + fieldBytes
	c := TableCost{KeyBits: keyBytes * 8}
	switch t.Kind {
	case ExactTable:
		// Residual entries are the table's default action, not rows.
		stored := 0
		for _, e := range t.Entries {
			if _, ok := e.Match.Exact(); ok {
				stored++
			}
		}
		c.SRAMBytes += stored*(keyBytes+actionBytes) + (len(t.Entries)-stored)*(stateBytes+actionBytes)
	case CompressedTable:
		// Value map: TCAM ranges over the raw field producing an
		// 8-bit code; main table: exact SRAM on (state, code).
		c.TCAMBytes += t.MapEntries * (fieldBytes + 1 + actionBytes) * tcamOverheadFactor
		c.SRAMBytes += len(t.Entries) * (stateBytes + 1 + actionBytes)
	default: // TernaryTable
		for _, e := range t.Entries {
			c.TCAMBytes += e.Match.TCAMEntries(bits) * (keyBytes + actionBytes) * tcamOverheadFactor
		}
	}
	// Absent-field defaults live in SRAM beside the stage.
	c.SRAMBytes += len(t.Defaults) * (stateBytes + actionBytes)
	c.Entries = len(t.Entries) + t.MapEntries + len(t.Defaults)
	return c
}

// MaxEntryCost returns the worst-case footprint of adding one more
// entry to t — the increment fitcheck's headroom search charges per
// hypothetical entry.
func MaxEntryCost(t *Table) TableCost {
	fieldBytes, bits := fieldWidth(t)
	keyBytes := stateBytes + fieldBytes
	c := TableCost{KeyBits: keyBytes * 8, Entries: 1}
	switch t.Kind {
	case ExactTable:
		c.SRAMBytes = keyBytes + actionBytes
	case CompressedTable:
		// One new row plus, worst case, one new value-map range.
		c.SRAMBytes = stateBytes + 1 + actionBytes
		c.TCAMBytes = (fieldBytes + 1 + actionBytes) * tcamOverheadFactor
		c.Entries = 2
	default: // TernaryTable
		// Charge the worst range expansion observed in the table; an
		// empty table is charged a single ternary row.
		worst := 1
		for _, e := range t.Entries {
			if n := e.Match.TCAMEntries(bits); n > worst {
				worst = n
			}
		}
		c.TCAMBytes = worst * (keyBytes + actionBytes) * tcamOverheadFactor
	}
	return c
}

// RegisterCount returns the number of stateful registers the program
// allocates — one per aggregate field in the predicate universe.
func RegisterCount(p *Program) int {
	if p.BDD != nil {
		return len(p.BDD.Universe.AggregateFields())
	}
	n := 0
	for _, t := range p.Stages {
		if t.Field.Ref.Kind == subscription.AggregateRef {
			n++
		}
	}
	return n
}

// estimate computes the resource footprint of a compiled program.
func estimate(p *Program) Resources {
	r := Resources{Stages: len(p.Stages) + 1}
	for _, t := range p.Stages {
		c := CostOf(t)
		r.SRAMBytes += c.SRAMBytes
		r.TCAMBytes += c.TCAMBytes
		r.Entries += c.Entries
	}
	// Leaf table: exact match on state.
	r.SRAMBytes += len(p.Leaf) * LeafEntryBytes
	r.Entries += len(p.Leaf)
	r.MulticastGroups = p.Egress().Groups()
	r.Registers = RegisterCount(p)
	r.SRAMPct = 100 * float64(r.SRAMBytes) / float64(SRAMBudgetBytes)
	r.TCAMPct = 100 * float64(r.TCAMBytes) / float64(TCAMBudgetBytes)
	return r
}
