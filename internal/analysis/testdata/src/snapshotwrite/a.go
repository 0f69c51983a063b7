// Package snapshotwrite is a fixture for the camus-snapshot analyzer:
// seeded mutations of StatsSnapshot and Config snapshot values.
package snapshotwrite

import (
	"camus/internal/pipeline"
)

func mutateStats(sw *pipeline.Switch) int64 {
	snap := sw.Stats()
	snap.Packets = 0                   // want `mutates a StatsSnapshot snapshot copy`
	snap.Deliveries++                  // want `mutates a StatsSnapshot snapshot copy`
	snap.BytesIn, snap.BytesOut = 1, 2 // want `snap\.BytesIn mutates a StatsSnapshot` `snap\.BytesOut mutates a StatsSnapshot`
	return snap.Packets                // reads are fine
}

func mutateStatsPtr(snap *pipeline.StatsSnapshot) {
	snap.Matched = 9 // want `mutates a StatsSnapshot snapshot copy`
}

func mutateConfig(sw *pipeline.Switch) pipeline.Config {
	cfg := sw.Config()
	cfg.Workers = 8           // want `mutates a Config snapshot copy`
	cfg.FlowCacheSize += 1024 // want `mutates a Config snapshot copy`
	return cfg
}

// aggregate reads and local copies of other structs stay silent.
type localStats struct{ Packets int64 }

func fineWrites(sw *pipeline.Switch) {
	var mine localStats
	mine.Packets = 7
	total := sw.Stats().Packets + mine.Packets
	_ = total
	_ = sw.Config().Workers
}
