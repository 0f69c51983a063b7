package pipeline

import "sync"

// StatsSnapshot is an immutable copy of the dataplane counters,
// aggregated across all worker shards at read time. Obtain one via
// Switch.Stats(); the zero value is an empty snapshot.
type StatsSnapshot struct {
	Packets        int64 // packets processed
	Messages       int64 // messages evaluated
	Matched        int64 // messages matching ≥1 subscription
	Deliveries     int64 // egress replicas emitted
	Recirculations int64 // extra parser passes (§VI-B)
	StateUpdates   int64 // register updates
	FlowHits       int64 // continuation packets served from the flow cache
	FlowMisses     int64 // continuation packets with no cached flow (dropped)
	ParseErrors    int64 // raw packets the parser rejected
	PrivateRuns    int64 // runs that found their shard busy and took a private workspace
	BatchFallbacks int64 // ProcessBatch calls that found the switch's Results busy and emitted into a throwaway one
	BytesIn        int64
	BytesOut       int64

	benchLeafCounters
}

// add returns the element-wise sum of two snapshots.
func (a StatsSnapshot) add(b StatsSnapshot) StatsSnapshot {
	a.Packets += b.Packets
	a.Messages += b.Messages
	a.Matched += b.Matched
	a.Deliveries += b.Deliveries
	a.Recirculations += b.Recirculations
	a.StateUpdates += b.StateUpdates
	a.FlowHits += b.FlowHits
	a.FlowMisses += b.FlowMisses
	a.ParseErrors += b.ParseErrors
	a.PrivateRuns += b.PrivateRuns
	a.BatchFallbacks += b.BatchFallbacks
	a.BytesIn += b.BytesIn
	a.BytesOut += b.BytesOut
	return a
}

// switchStats is one shard's private counter block. A run accumulates
// its counts in a StatsSnapshot on the stack and commits them once, so
// the lock is taken per call, not per message, and a snapshot is
// consistent across counters.
type switchStats struct {
	mu  sync.Mutex
	sum StatsSnapshot
}

// commit adds one run's counts.
func (st *switchStats) commit(d StatsSnapshot) {
	st.mu.Lock()
	st.sum = st.sum.add(d)
	st.mu.Unlock()
}

func (st *switchStats) snapshot() StatsSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sum
}

func (st *switchStats) reset() {
	st.mu.Lock()
	st.sum = StatsSnapshot{}
	st.mu.Unlock()
}
