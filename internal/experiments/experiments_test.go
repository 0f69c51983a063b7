package experiments

import (
	"strings"
	"testing"

	"camus/internal/workload"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

// TestFig8Shape: Camus tail latency must sit far below the software
// baseline's on both workloads (the Fig. 8 relationship).
func TestFig8Shape(t *testing.T) {
	r := Fig8(quickCfg())
	tbl := r.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(tbl.Rows), tbl)
	}
	// Rows: (nasdaq, baseline), (nasdaq, camus), (synthetic, baseline),
	// (synthetic, camus). Compare P99.9 (column 5).
	parse := func(row []string, col int) float64 {
		var v float64
		if _, err := sscan(row[col], &v); err != nil {
			t.Fatalf("bad cell %q: %v", row[col], err)
		}
		return v
	}
	for i := 0; i < 4; i += 2 {
		base := parse(tbl.Rows[i], 5)
		camus := parse(tbl.Rows[i+1], 5)
		if camus*2 > base {
			t.Errorf("workload %s: Camus P99.9 %.1fµs not well below baseline %.1fµs",
				tbl.Rows[i][0], camus, base)
		}
	}
	// Both systems deliver the same number of interesting packets.
	if tbl.Rows[0][7] != tbl.Rows[1][7] || tbl.Rows[2][7] != tbl.Rows[3][7] {
		t.Errorf("delivery counts differ between systems:\n%s", tbl)
	}
}

// TestFig8FilterAgreement: the compiled switch filter and the workload
// generator agree on which orders are interesting.
func TestFig8FilterAgreement(t *testing.T) {
	prog := mustCompileITCH("stock == GOOGL: fwd(1)")
	feed := workload.ITCHFeed(workload.ITCHFeedConfig{Packets: 3000, InterestFraction: 0.01, Seed: 5})
	wantMatched := 0
	var orders []*workloadOrder
	for _, p := range feed {
		wantMatched += p.Interesting
		for _, o := range p.Orders {
			orders = append(orders, o)
		}
	}
	flat := make([]*workloadOrder, len(orders))
	copy(flat, orders)
	if got := verifySwitchFilters(prog, flat); got != wantMatched {
		t.Errorf("switch matched %d, generator marked %d", got, wantMatched)
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(quickCfg())
	tbl := r.Tables[0]
	var prevDPDK float64
	for i, row := range tbl.Rows {
		var c, d, camus float64
		mustScan(t, row[1], &c)
		mustScan(t, row[2], &d)
		mustScan(t, row[3], &camus)
		if c >= d {
			t.Errorf("row %d: C (%f) not below DPDK (%f)", i, c, d)
		}
		if d >= camus {
			t.Errorf("row %d: DPDK (%f) not below Camus line rate (%f)", i, d, camus)
		}
		if i > 0 && d > prevDPDK {
			t.Errorf("row %d: DPDK throughput increased with more filters", i)
		}
		prevDPDK = d
		if row[5] != "true" {
			t.Errorf("row %d: compiled filters do not fit the switch", i)
		}
	}
	// The 10k→100k collapse.
	var d10k, d100k float64
	mustScan(t, tbl.Rows[4][2], &d10k)
	mustScan(t, tbl.Rows[5][2], &d100k)
	if d100k > d10k/2 {
		t.Errorf("no DPDK collapse past 10k filters: %f vs %f", d10k, d100k)
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(quickCfg())
	tbl := r.Tables[0]
	var baseP95, camusP95 float64
	mustScan(t, tbl.Rows[0][2], &baseP95)
	mustScan(t, tbl.Rows[1][2], &camusP95)
	if camusP95 >= baseP95 {
		t.Fatalf("bypass did not reduce cold P95: %.1f vs %.1f", camusP95, baseP95)
	}
	reduction := 100 * (baseP95 - camusP95) / baseP95
	if reduction < 8 || reduction > 45 {
		t.Errorf("cold P95 reduction = %.1f%%, want in the paper's ≈21%% region (8–45)", reduction)
	}
	// Hot latency must improve too (forwarder sheds cold load).
	var baseHot, camusHot float64
	mustScan(t, r.Tables[1].Rows[0][1], &baseHot)
	mustScan(t, r.Tables[1].Rows[1][1], &camusHot)
	if camusHot > baseHot {
		t.Errorf("hot P95 got worse under bypass: %.1f vs %.1f", camusHot, baseHot)
	}
}

func TestFig12Shape(t *testing.T) {
	r := Fig12(quickCfg())
	ta := r.Tables[0]
	var prevCamus float64
	for i, row := range ta.Rows {
		var camus, parts, big float64
		mustScan(t, row[1], &camus)
		mustScan(t, row[2], &parts)
		mustScan(t, row[3], &big)
		if big <= camus {
			t.Errorf("row %d: big table (%f) not above camus (%f)", i, big, camus)
		}
		if parts > camus {
			t.Errorf("row %d: parts (%f) above the one diagram (%f)", i, parts, camus)
		}
		if i > 0 && camus < prevCamus/2 {
			t.Errorf("row %d: camus entries should grow roughly with subscriptions", i)
		}
		prevCamus = camus
	}
	// (b): 4-pred filters need fewer entries than 1-pred filters in the
	// paper's one diagram; parts never need more than it.
	tb := r.Tables[1]
	var one, four float64
	mustScan(t, tb.Rows[0][1], &one)
	mustScan(t, tb.Rows[len(tb.Rows)-1][1], &four)
	if four >= one {
		t.Errorf("selectivity effect missing: 1-pred %.0f vs 4-pred %.0f entries", one, four)
	}
	for i, row := range tb.Rows {
		var camus, parts float64
		mustScan(t, row[1], &camus)
		mustScan(t, row[2], &parts)
		if parts > camus {
			t.Errorf("(b) row %d: parts (%f) above the one diagram (%f)", i, parts, camus)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1(quickCfg())
	tbl := r.Tables[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[6] != "true" {
			t.Errorf("%s does not fit the switch: %v", row[0], row)
		}
	}
	// ITCH is the heavy multicast user.
	var itchG, intG, hicnG float64
	mustScan(t, tbl.Rows[0][5], &itchG)
	mustScan(t, tbl.Rows[1][5], &intG)
	mustScan(t, tbl.Rows[2][5], &hicnG)
	if itchG <= intG || itchG <= hicnG {
		t.Errorf("ITCH should dominate multicast groups: itch=%v int=%v hicn=%v", itchG, intG, hicnG)
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(quickCfg())
	tbl := r.Tables[0]
	// For every (#filters): TR total > MR total at α=1, and TR α=10
	// total < TR α=1 total.
	byKey := map[string]float64{}
	for _, row := range tbl.Rows {
		var total float64
		mustScan(t, row[6], &total)
		byKey[row[0]+"/"+row[1]+"/"+row[2]] = total
	}
	for _, n := range []string{"32", "64", "128"} {
		mr := byKey[n+"/MR/1"]
		tr := byKey[n+"/TR/1"]
		if tr <= mr {
			t.Errorf("n=%s: TR (%f) not above MR (%f)", n, tr, mr)
		}
	}
	// The α aggregation benefit needs constant density; like the
	// paper's figures it is asserted at the largest filter count.
	if trA, tr := byKey["128/TR/10"], byKey["128/TR/1"]; trA >= tr {
		t.Errorf("n=128: α=10 did not reduce TR memory (%f >= %f)", trA, tr)
	}
}

func TestFig13dShape(t *testing.T) {
	r := Fig13d(quickCfg())
	tbl := r.Tables[0]
	var first, last float64
	mustScan(t, tbl.Rows[0][2], &first)
	mustScan(t, tbl.Rows[len(tbl.Rows)-1][2], &last)
	if first != 0 {
		t.Errorf("α=1 extra traffic = %f, want 0", first)
	}
	if last < 0 {
		t.Errorf("α=100 extra traffic negative: %f", last)
	}
	if last == 0 {
		t.Error("α=100 produced no extra traffic — approximation had no effect")
	}
}

func TestFig14Shape(t *testing.T) {
	r := Fig14(quickCfg())
	tbl := r.Tables[0]
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		var speedup float64
		mustScan(t, row[5], &speedup)
		if speedup < 0.2 {
			t.Errorf("α=10 made compilation 5× slower (%v): %v", speedup, row)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	r := Fig15(quickCfg())
	tbl := r.Tables[0]
	betterOrEqual, total := 0, 0
	for _, row := range tbl.Rows {
		var mst, mstPP float64
		mustScan(t, row[3], &mst)
		mustScan(t, row[4], &mstPP)
		total++
		if mstPP <= mst {
			betterOrEqual++
		}
		if mst <= 0 || mstPP <= 0 {
			t.Errorf("degenerate entries: %v", row)
		}
	}
	if betterOrEqual*2 < total {
		t.Errorf("MST++ better/equal in only %d of %d points", betterOrEqual, total)
	}
}

func TestAblations(t *testing.T) {
	a1 := AblationPruning(quickCfg())
	for _, row := range a1.Tables[0].Rows {
		if row[3] == "blowup" {
			continue // unpruned build hit the node cap — the finding itself
		}
		var blowup float64
		mustScan(t, row[3], &blowup)
		if blowup < 1 {
			t.Errorf("pruning made tables larger: %v", row)
		}
	}
	// As one diagram the canonical order is the smallest of the three on
	// every rule set. In parts the part decision moves with the order and
	// another order can win (ROADMAP, "Cut the product"): those rows are
	// reported, not failed.
	a2 := AblationFieldOrder(quickCfg())
	if len(a2.Tables[0].Rows) == 0 {
		t.Error("field order ablation empty")
	}
	for _, row := range a2.Tables[0].Rows {
		for k, cols := range [][]string{row[1:4], row[4:7]} {
			var canonical float64
			mustScan(t, cols[0], &canonical)
			for _, cell := range cols[1:] {
				var other float64
				mustScan(t, cell, &other)
				switch {
				case other >= canonical:
				case k == 0:
					t.Logf("%s, in parts: an alternative order (%v entries) beats the canonical one (%v)", row[0], other, canonical)
				default:
					t.Errorf("%s, one diagram: an alternative order (%v entries) beats the canonical one (%v)", row[0], other, canonical)
				}
			}
		}
	}
	a3 := AblationExactMatch(quickCfg())
	rows := a3.Tables[0].Rows
	var tcamAll, tcamNone float64
	mustScan(t, rows[0][2], &tcamAll)
	mustScan(t, rows[2][2], &tcamNone)
	if tcamNone <= tcamAll {
		t.Errorf("disabling §V-E optimizations did not raise TCAM: %f vs %f", tcamNone, tcamAll)
	}
}

func TestResultRendering(t *testing.T) {
	r := Fig9(quickCfg())
	out := r.String()
	for _, want := range []string{"Fig. 9", "DPDK", "Mpps", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("result output missing %q", want)
		}
	}
}
