// Package fitcheck is the static pipeline-layout analyzer: it takes a
// compiled program and computes an actual stage placement — a
// dependency-respecting packing of the field tables and the leaf/action
// stage into the modeled pipeline — under per-stage SRAM/TCAM/key-width
// budgets, with recirculation passes when the chain cannot fit in one
// pipe. It is the fourth leg of the analysis suite: rulecheck proves the
// rules sane, prove/netcheck prove translation and delivery correct,
// fitcheck proves the program *deployable*.
//
// The program's stage tables form a strict dependency chain (every
// table matches on the previous table's output state), so placement is
// sequential: tables never share a stage, and a table whose footprint
// exceeds one stage's memory is split across consecutive stages (the
// classic done-bit split), up to Budget.MaxTableSplit stages. When the
// chain needs more stage slots than one pass provides, additional
// recirculation passes are modeled, each costing a full pipe traversal.
//
// Verdicts are reported per dimension as report.Findings:
//
//	fit-stages         chain cannot fit even with every recirculation pass (error)
//	fit-recirculation  chain fits but needs ≥1 recirculation pass (warning)
//	fit-stage-sram     one table's SRAM cannot split into MaxTableSplit stages (error)
//	fit-stage-tcam     one table's TCAM cannot split into MaxTableSplit stages (error)
//	fit-key-width      a match key exceeds the stage crossbar width (error)
//	fit-mcast          multicast groups exceed the replication table (error)
//	fit-registers      aggregate windows exceed the stateful ALUs (error)
//
// Beyond the verdict, the layout carries a headroom prediction per
// table: how many worst-case entries can still be added before the
// placement stops fitting. The control plane uses that number for
// admission (Model.Admit) so an oversized delta is rejected before
// compile/install.
package fitcheck

import (
	"fmt"

	"camus/internal/analysis/report"
	"camus/internal/compiler"
)

// Tool is the tool name stamped on findings.
const Tool = "camusc-fit"

// Finding kinds, one per fit dimension.
const (
	KindStages   report.Kind = "fit-stages"
	KindRecirc   report.Kind = "fit-recirculation"
	KindSRAM     report.Kind = "fit-stage-sram"
	KindTCAM     report.Kind = "fit-stage-tcam"
	KindKeyWidth report.Kind = "fit-key-width"
	KindMcast    report.Kind = "fit-mcast"
	KindRegs     report.Kind = "fit-registers"
)

// Budget is the per-stage pipeline model fitcheck packs into. The zero
// value is invalid; start from DefaultBudget.
type Budget struct {
	// Stages is the number of match-action stages per pass.
	Stages int `json:"stages"`
	// StageSRAMBytes / StageTCAMBytes are the memory blocks one stage
	// owns. The whole-switch budgets are banked evenly across stages:
	// a stage cannot borrow another stage's memory.
	StageSRAMBytes int `json:"stage_sram_bytes"`
	StageTCAMBytes int `json:"stage_tcam_bytes"`
	// StageKeyBits is the match-key crossbar width per stage. A table
	// whose key exceeds it cannot be placed at all (splitting widens
	// entries, not keys).
	StageKeyBits int `json:"stage_key_bits"`
	// MaxTableSplit is the maximum consecutive stages one logical
	// table may span via done-bit splitting.
	MaxTableSplit int `json:"max_table_split"`
	// MulticastGroups / Registers are whole-switch counts.
	MulticastGroups int `json:"multicast_groups"`
	Registers       int `json:"registers"`
	// RecircPasses is the number of extra pipe traversals available
	// via the recirculation port before the chain stops fitting.
	RecircPasses int `json:"recirc_passes"`
}

// DefaultBudget models the Tofino-class switch from
// internal/compiler/resources.go with its memory banked evenly across
// the pipeline stages.
func DefaultBudget() Budget {
	return Budget{
		Stages:          compiler.MaxPipelineStages,
		StageSRAMBytes:  compiler.SRAMBudgetBytes / compiler.MaxPipelineStages,
		StageTCAMBytes:  compiler.TCAMBudgetBytes / compiler.MaxPipelineStages,
		StageKeyBits:    512,
		MaxTableSplit:   4,
		MulticastGroups: compiler.MulticastGroupBudget,
		Registers:       compiler.RegisterBudget,
		RecircPasses:    1,
	}
}

// slots is the total stage capacity including recirculation passes.
func (b Budget) slots() int { return b.Stages * (1 + b.RecircPasses) }

// TableFit is one logical table's placement.
type TableFit struct {
	// Name is the table's field key ("Leaf" for the action stage).
	Name string `json:"name"`
	// Kind is "exact", "compressed", "ternary", or "leaf".
	Kind string `json:"kind"`
	// Cost is the table's footprint.
	Cost compiler.TableCost `json:"cost"`
	// FirstStage is the first stage slot (global across passes,
	// 0-based); StagesUsed how many consecutive slots the table spans.
	FirstStage int `json:"first_stage"`
	StagesUsed int `json:"stages_used"`
	// Headroom is how many worst-case entries can be added to this
	// table before the placement stops fitting (errors appear). It is
	// 0 when the program already overflows.
	Headroom int `json:"headroom"`
}

// StageUse is one physical stage slot's utilization.
type StageUse struct {
	// Pass is the traversal index (0 = first pass, ≥1 = recirculated).
	Pass int `json:"pass"`
	// SRAMBytes / TCAMBytes are the memory charged to this stage.
	SRAMBytes int `json:"sram_bytes"`
	TCAMBytes int `json:"tcam_bytes"`
	// SRAMPct / TCAMPct are percentages of the per-stage banks.
	SRAMPct float64 `json:"sram_pct"`
	TCAMPct float64 `json:"tcam_pct"`
	// Tables lists the logical tables (or table fragments) placed here.
	Tables []string `json:"tables"`
}

// Layout is the computed placement plus the per-dimension verdict.
type Layout struct {
	Budget Budget     `json:"budget"`
	Tables []TableFit `json:"tables"`
	// Stages holds one entry per used stage slot.
	Stages []StageUse `json:"stages"`
	// Passes is the number of pipe traversals (1 = no recirculation).
	Passes int `json:"passes"`
	// Registers / MulticastGroups are the whole-switch counts consumed.
	Registers       int `json:"registers"`
	MulticastGroups int `json:"multicast_groups"`
	// Findings is the per-dimension verdict (empty = clean fit).
	Findings []report.Finding `json:"findings"`
}

// Fits reports whether the placement has no error-severity finding
// (recirculation warnings still count as fitting).
func (l *Layout) Fits() bool {
	for _, f := range l.Findings {
		if f.Severity == report.SevError {
			return false
		}
	}
	return true
}

// MinHeadroom returns the smallest per-table headroom — the number of
// worst-case entries the tightest table can still absorb.
func (l *Layout) MinHeadroom() int {
	min := 0
	for i, t := range l.Tables {
		if i == 0 || t.Headroom < min {
			min = t.Headroom
		}
	}
	return min
}

// MaxStageSRAMPct returns the utilization of the fullest stage's SRAM
// bank (0 when no stage is used).
func (l *Layout) MaxStageSRAMPct() float64 {
	max := 0.0
	for _, s := range l.Stages {
		if s.SRAMPct > max {
			max = s.SRAMPct
		}
	}
	return max
}

// Options configures Analyze.
type Options struct {
	// Budget is the pipeline model; zero value means DefaultBudget.
	Budget Budget
	// File is stamped on findings (the rules file being analyzed).
	File string
	// SkipHeadroom disables the per-table headroom search (used by the
	// search itself, and by hot admission paths that only need the
	// verdict).
	SkipHeadroom bool
}

// table is the internal placement unit: a logical table plus its
// precomputed costs.
type table struct {
	name  string
	kind  string
	cost  compiler.TableCost
	extra compiler.TableCost // worst-case one-more-entry increment
	// demand is the number of consecutive stage slots needed.
	demand int
}

func kindName(k compiler.TableKind) string {
	switch k {
	case compiler.ExactTable:
		return "exact"
	case compiler.CompressedTable:
		return "compressed"
	default:
		return "ternary"
	}
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// demandFor computes the stage-slot demand of one table under b, before
// the MaxTableSplit cap is enforced.
func demandFor(c compiler.TableCost, b Budget) int {
	d := 1
	if b.StageSRAMBytes > 0 {
		if n := ceilDiv(c.SRAMBytes, b.StageSRAMBytes); n > d {
			d = n
		}
	}
	if b.StageTCAMBytes > 0 {
		if n := ceilDiv(c.TCAMBytes, b.StageTCAMBytes); n > d {
			d = n
		}
	}
	return d
}

// gather extracts the placement units from a program: one table per
// stage field plus the leaf pseudo-table.
func gather(p *compiler.Program, b Budget) []table {
	ts := make([]table, 0, len(p.Stages)+1)
	for _, st := range p.Stages {
		c := compiler.CostOf(st)
		ts = append(ts, table{
			name:   st.Name(),
			kind:   kindName(st.Kind),
			cost:   c,
			extra:  compiler.MaxEntryCost(st),
			demand: demandFor(c, b),
		})
	}
	leaf := compiler.TableCost{
		SRAMBytes: len(p.Leaf) * compiler.LeafEntryBytes,
		KeyBits:   32, // state metadata only
		Entries:   len(p.Leaf),
	}
	ts = append(ts, table{
		name:   "Leaf",
		kind:   "leaf",
		cost:   leaf,
		extra:  compiler.TableCost{SRAMBytes: compiler.LeafEntryBytes, KeyBits: 32, Entries: 1},
		demand: demandFor(leaf, b),
	})
	return ts
}

// Analyze computes the stage placement of p under opts.Budget and
// reports the per-dimension fit verdict.
func Analyze(p *compiler.Program, opts Options) *Layout {
	b := opts.Budget
	if b.Stages == 0 {
		b = DefaultBudget()
	}
	ts := gather(p, b)
	l := place(ts, b, opts.File)
	l.Registers = compiler.RegisterCount(p)
	l.MulticastGroups = p.Egress().Groups()
	globalFindings(l, b, opts.File)
	if !opts.SkipHeadroom {
		headroom(l, ts, b)
	}
	return l
}

// place packs the table chain into stage slots and emits the per-table
// findings (key width, unsplittable tables, chain overflow).
func place(ts []table, b Budget, file string) *Layout {
	l := &Layout{Budget: b}
	finding := func(kind report.Kind, sev report.Severity, msg string, args ...any) {
		l.Findings = append(l.Findings, report.Finding{
			Tool:     Tool,
			File:     file,
			Kind:     kind,
			Severity: sev,
			Message:  fmt.Sprintf(msg, args...),
		})
	}
	slot := 0
	for _, t := range ts {
		if t.cost.KeyBits > b.StageKeyBits {
			finding(KindKeyWidth, report.SevError,
				"table %s: match key %d bits exceeds the %d-bit stage crossbar",
				t.name, t.cost.KeyBits, b.StageKeyBits)
		}
		demand := t.demand
		if demand > b.MaxTableSplit {
			// Report the dimension that drives the split.
			kind, res, have := KindSRAM, t.cost.SRAMBytes, b.StageSRAMBytes*b.MaxTableSplit
			if b.StageTCAMBytes > 0 && ceilDiv(t.cost.TCAMBytes, b.StageTCAMBytes) > b.MaxTableSplit {
				kind, res, have = KindTCAM, t.cost.TCAMBytes, b.StageTCAMBytes*b.MaxTableSplit
			}
			finding(kind, report.SevError,
				"table %s needs %d stages but may span at most %d (%d bytes > %d across the split)",
				t.name, demand, b.MaxTableSplit, res, have)
			demand = b.MaxTableSplit // place what fits; the verdict already failed
		}
		tf := TableFit{
			Name: t.name, Kind: t.kind, Cost: t.cost,
			FirstStage: slot, StagesUsed: demand,
		}
		// Distribute the footprint evenly across the split fragments.
		for i := 0; i < demand; i++ {
			for len(l.Stages) <= slot+i {
				l.Stages = append(l.Stages, StageUse{Pass: len(l.Stages) / b.Stages})
			}
			su := &l.Stages[slot+i]
			su.SRAMBytes += t.cost.SRAMBytes / demand
			su.TCAMBytes += t.cost.TCAMBytes / demand
			if i == 0 { // remainder bytes land on the first fragment
				su.SRAMBytes += t.cost.SRAMBytes % demand
				su.TCAMBytes += t.cost.TCAMBytes % demand
			}
			name := t.name
			if demand > 1 {
				name = fmt.Sprintf("%s[%d/%d]", t.name, i+1, demand)
			}
			su.Tables = append(su.Tables, name)
		}
		slot += demand
		l.Tables = append(l.Tables, tf)
	}
	for i := range l.Stages {
		l.Stages[i].SRAMPct = 100 * float64(l.Stages[i].SRAMBytes) / float64(b.StageSRAMBytes)
		l.Stages[i].TCAMPct = 100 * float64(l.Stages[i].TCAMBytes) / float64(b.StageTCAMBytes)
	}
	l.Passes = ceilDiv(slot, b.Stages)
	if l.Passes == 0 {
		l.Passes = 1
	}
	switch {
	case slot > b.slots():
		finding(KindStages, report.SevError,
			"pipeline needs %d stage slots but only %d are available (%d stages × %d passes)",
			slot, b.slots(), b.Stages, 1+b.RecircPasses)
	case l.Passes > 1:
		finding(KindRecirc, report.SevWarning,
			"pipeline needs %d stage slots: %d recirculation pass(es) of the %d budgeted",
			slot, l.Passes-1, b.RecircPasses)
	}
	return l
}

// globalFindings emits the whole-switch dimension verdicts.
func globalFindings(l *Layout, b Budget, file string) {
	if l.MulticastGroups > b.MulticastGroups {
		l.Findings = append(l.Findings, report.Finding{
			Tool: Tool, File: file, Kind: KindMcast, Severity: report.SevError,
			Message: fmt.Sprintf("%d multicast groups exceed the %d-group replication table",
				l.MulticastGroups, b.MulticastGroups),
		})
	}
	if l.Registers > b.Registers {
		l.Findings = append(l.Findings, report.Finding{
			Tool: Tool, File: file, Kind: KindRegs, Severity: report.SevError,
			Message: fmt.Sprintf("%d aggregate windows exceed the %d stateful registers",
				l.Registers, b.Registers),
		})
	}
}

// headroom fills in per-table headroom: for each table, the largest h
// such that charging h worst-case extra entries to it keeps the layout
// free of error findings. Monotone in h, so exponential probe + binary
// search. A program that already overflows has zero headroom everywhere.
func headroom(l *Layout, ts []table, b Budget) {
	if !l.Fits() {
		return // Headroom fields stay 0
	}
	// maxH caps the search: once a table could absorb the whole pipe's
	// worth of its own entry cost, more precision is meaningless.
	const maxH = 1 << 30
	for i := range ts {
		fits := func(h int) bool { return fitsWith(ts, i, h, b) }
		lo, hi := 0, 1
		for hi < maxH && fits(hi) {
			lo, hi = hi, hi*2
		}
		if hi >= maxH {
			l.Tables[i].Headroom = maxH
			continue
		}
		// Invariant: fits(lo) && !fits(hi).
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if fits(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		l.Tables[i].Headroom = lo
	}
}

// fitsWith reports whether the chain still fits when table idx carries
// h extra worst-case entries. Only the dimensions an entry add can move
// are re-checked: stage demand (hence slots/splits). Key width, mcast,
// and register counts are entry-independent.
func fitsWith(ts []table, idx, h int, b Budget) bool {
	slots := 0
	for i, t := range ts {
		c := t.cost
		if i == idx {
			c.SRAMBytes += h * t.extra.SRAMBytes
			c.TCAMBytes += h * t.extra.TCAMBytes
		}
		d := demandFor(c, b)
		if d > b.MaxTableSplit {
			return false
		}
		slots += d
	}
	return slots <= b.slots()
}
