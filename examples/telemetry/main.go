// Command telemetry runs the network telemetry analytics application
// (§VIII-C2): packet subscriptions filter anomalous INT events in the
// switch, doing the work of a Kafka + Spark pipeline.
package main

import (
	"fmt"
	"log"

	"camus/camus"
	"camus/internal/analysis/fitcheck"
	"camus/internal/formats"
	"camus/internal/workload"
)

func main() {
	app, err := camus.NewAppFromSpec(formats.INT)
	if err != nil {
		log.Fatal(err)
	}
	// The analytics cluster subscribes to anomalies only: high per-hop
	// latency on specific switches, deep queues anywhere.
	rules, err := app.ParseRules(`
switch_id == 2 and hop_latency > 100: fwd(1)
switch_id == 7 and hop_latency > 100: fwd(1)
queue_depth > 48: fwd(2)
`)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := app.Compile(rules)
	if err != nil {
		log.Fatal(err)
	}
	sw, err := app.NewSwitch("collector-tor", prog)
	if err != nil {
		log.Fatal(err)
	}

	stream := workload.INTStream(workload.INTStreamConfig{Reports: 200000, Seed: 3})
	fmt.Printf("replaying %d INT reports through the switch filter...\n", len(stream))
	m := app.NewMessage()
	matched := 0
	for _, r := range stream {
		r.FillMessage(m)
		if !sw.EvalMessage(m, 0).IsEmpty() {
			matched++
		}
	}
	fmt.Printf("anomalous events forwarded to analytics: %d / %d (%.3f%%)\n",
		matched, len(stream), 100*float64(matched)/float64(len(stream)))
	fmt.Printf("switch filter state: %s\n", fitcheck.Analyze(prog, fitcheck.Options{SkipHeadroom: true}))
	fmt.Println("\nwithout Camus, all reports would cross the collection cluster;")
	fmt.Printf("with Camus the cluster ingests %.3f%% of the stream.\n",
		100*float64(matched)/float64(len(stream)))
}
