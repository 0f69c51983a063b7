package experiments

import (
	"math/rand"
	"time"

	"camus/internal/analysis/fitcheck"
	"camus/internal/baseline"
	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/spec"
	"camus/internal/stats"
	"camus/internal/subscription"
	"camus/internal/workload"
)

// Fig8 reproduces the ITCH end-to-end latency experiment (§VIII-E1,
// Fig. 8): a publisher feeds ITCH messages at 90% of the software
// subscriber's filtering capacity; the subscriber wants GOOGL add-orders.
//
//   - baseline: every packet reaches the subscriber, which filters in
//     software (DPDK model) — the filter queue backs up under bursts;
//   - Camus: the switch filters at line rate and delivers only matches,
//     so the subscriber's queue stays empty.
//
// Two workloads as in the paper: a Nasdaq-trace-like feed (one message
// per packet, 0.5% GOOGL) and a synthetic feed (Zipf batches, 5%).
func Fig8(cfg Config) *Result {
	res := &Result{
		ID:    "Fig. 8",
		Title: "ITCH end-to-end latency CDF: Camus vs. software subscriber",
	}
	packets := cfg.scale(40000, 400000)

	workloads := []struct {
		name string
		cfg  workload.ITCHFeedConfig
	}{
		{"nasdaq-trace", workload.ITCHFeedConfig{
			Packets: packets, InterestFraction: 0.005, Seed: cfg.Seed,
		}},
		{"synthetic-zipf", workload.ITCHFeedConfig{
			Packets: packets, InterestFraction: 0.05, BatchZipf: true, Seed: cfg.Seed + 1,
		}},
	}

	// The subscriber's software filter (DPDK class) and its capacity.
	model := baseline.DPDK()
	perMsg := model.ServiceTime(1)
	// Feed rate: 90% of the subscriber's max filtering throughput
	// (8.25 Mpps in the paper ≈ 90% of ~9.2 Mpps).
	interarrival := time.Duration(float64(perMsg) / 0.9)

	// Camus-side switch program: the GOOGL filter compiled to tables.
	prog := mustCompileITCH("stock == GOOGL and buy_sell == 66: fwd(1)")
	switchLatency := 600 * time.Nanosecond

	tbl := &stats.Table{
		Title:  "end-to-end latency percentiles (µs)",
		Header: []string{"workload", "system", "P50", "P95", "P99", "P99.9", "max", "delivered"},
	}
	cdf := &stats.Table{
		Title:  "CDF points (latency µs → fraction)",
		Header: []string{"workload", "system", "10us", "20us", "50us", "100us", "300us"},
	}

	for _, wl := range workloads {
		feed := workload.ITCHFeed(wl.cfg)
		r := rand.New(rand.NewSource(cfg.Seed + 7))

		// Bursty arrival process: the feed alternates quiet periods and
		// line-rate bursts while sustaining the target average rate
		// (market data is bursty; this is what creates the baseline's
		// heavy tail).
		arrivals := make([]time.Duration, len(feed))
		now := time.Duration(0)
		burstLeft := 0
		for i := range feed {
			if burstLeft == 0 {
				burstLeft = 50 + r.Intn(400)
				// Quiet gap that keeps the long-run average rate at
				// 1/interarrival: each burst packet arrives at ~1/3 of
				// the mean spacing, so the gap returns the surplus.
				gap := time.Duration(float64(burstLeft) * float64(interarrival) * 0.67)
				now += gap
			}
			burstLeft--
			now += interarrival / 3
			arrivals[i] = now
		}

		for _, system := range []string{"baseline", "camus"} {
			var sample stats.Sample
			var queue baseline.QueueSim
			delivered := 0
			for i, pkt := range feed {
				interesting := pkt.Interesting > 0
				switch system {
				case "baseline":
					// Every packet transits the switch untouched and is
					// filtered by the subscriber in software.
					service := time.Duration(len(pkt.Orders)) * perMsg
					_, sojourn := queue.Process(arrivals[i], service)
					if interesting {
						sample.AddDuration(switchLatency + sojourn)
						delivered++
					}
				case "camus":
					// The switch filters; the subscriber only handles
					// delivered messages (its queue is idle).
					if !interesting {
						continue
					}
					service := time.Duration(pkt.Interesting) * perMsg
					_, sojourn := queue.Process(arrivals[i], service)
					sample.AddDuration(switchLatency + sojourn)
					delivered++
				}
			}
			us := func(p float64) float64 { return sample.Percentile(p) / 1000 }
			tbl.AddRow(wl.name, system, us(50), us(95), us(99), us(99.9),
				sample.Max()/1000, delivered)
			cdf.AddRow(wl.name, system,
				sample.FracBelow(10_000), sample.FracBelow(20_000),
				sample.FracBelow(50_000), sample.FracBelow(100_000),
				sample.FracBelow(300_000))

			if system == "camus" && wl.name == "nasdaq-trace" {
				res.addFinding("nasdaq-trace: Camus delivers all messages within %.0fµs (paper: 50µs; baseline tail is paper's 300µs class)",
					sample.Max()/1000)
			}
		}
	}
	res.Tables = []*stats.Table{tbl, cdf}
	res.addFinding("Camus entries installed: %d (%s)", prog.TotalEntries(), fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true}))
	return res
}

var itchParser = subscription.NewParser(formats.ITCH)

func mustCompileITCH(rulesSrc string) *compiler.Program {
	rules, err := itchParser.ParseRules(rulesSrc)
	if err != nil {
		panic(err)
	}
	p, err := compiler.Compile(formats.ITCH, rules, compiler.Options{})
	if err != nil {
		panic(err)
	}
	return p
}

// verifySwitchFilters double-checks the compiled program agrees with the
// workload's notion of "interesting" (used by tests).
func verifySwitchFilters(prog *compiler.Program, orders []*formats.Order) (matched int) {
	m := spec.NewMessage(formats.ITCH)
	for _, o := range orders {
		o.FillMessage(m)
		if !prog.Eval(m, nil).IsEmpty() {
			matched++
		}
	}
	return matched
}
