package compiler

import (
	"camus/internal/bdd"
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

// LeafEntryBytes is the SRAM cost of one leaf-table row: exact match on
// the BDD state plus the action/group word.
const LeafEntryBytes = stateBytes + 8

// TableCost is one table's resource footprint — the unit the layout
// analyzer (internal/analysis/fitcheck) packs into stages and sums into
// the Table I columns.
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

// FieldWidth returns the field byte width and match-key bit count used
// by the cost model for a stage table.
func FieldWidth(t *Table) (fieldBytes, bits int) {
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

// CostOf computes the resource footprint of a single stage table — the
// one cost definition fitcheck places and totals.
func CostOf(t *Table) TableCost {
	fieldBytes, bits := FieldWidth(t)
	keyBytes := stateBytes + fieldBytes
	c := TableCost{KeyBits: keyBytes * 8}
	switch t.Kind {
	case ExactTable:
		c.SRAMBytes += len(t.Entries) * (keyBytes + actionBytes)
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
	fieldBytes, bits := FieldWidth(t)
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

// Aggregates returns the aggregates the program holds a stateful
// register for: the universe's aggregate fields a stage reads or a leaf
// updates, in universe order. An aggregate field the universe still
// holds after its last filter left (the incremental engine's universe
// only grows) is not among them, and a program built without a diagram
// has none.
func Aggregates(p *Program) []*bdd.FieldVar {
	if p.BDD == nil {
		return nil
	}
	live := make(map[string]bool)
	for _, t := range p.Stages {
		live[t.Field.Key()] = true
	}
	for _, le := range p.Leaf {
		for _, k := range le.Updates {
			live[k] = true
		}
	}
	var out []*bdd.FieldVar
	for _, fv := range p.BDD.Universe.AggregateFields() {
		if live[fv.Key()] {
			out = append(out, fv)
		}
	}
	return out
}

// RegisterCount returns the number of stateful registers the program
// uses: one per aggregate (Aggregates).
func RegisterCount(p *Program) int { return len(Aggregates(p)) }
