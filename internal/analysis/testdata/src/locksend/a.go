// Package locksend is a fixture for the camus-locksend analyzer:
// channel sends and dataplane batch fan-out while holding mutexes.
package locksend

import (
	"sync"

	"camus/internal/netsim"
	"camus/internal/pipeline"
)

type queue struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	ch    chan int
	items []int
}

func (q *queue) sendLocked(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.ch <- v // want `channel send while holding q\.mu`
	q.mu.Unlock()
}

func (q *queue) sendAfterUnlock(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.ch <- v // lock released: no finding
}

func (q *queue) sendUnderDefer(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- v // want `channel send while holding q\.mu`
}

func (q *queue) sendUnderRLock(v int) {
	q.rw.RLock()
	defer q.rw.RUnlock()
	q.ch <- v // want `channel send while holding q\.rw`
}

func (q *queue) sendUnderTwoLocks(v int) {
	q.rw.Lock()
	defer q.rw.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ch <- v // want `channel send while holding q\.mu, q\.rw$`
}

func (q *queue) sendInSelect(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- v: // want `channel send while holding q\.mu`
	default:
	}
}

func (q *queue) fanOutLocked(sw *pipeline.Switch, pkts []*pipeline.Packet) [][]pipeline.Delivery {
	q.mu.Lock()
	defer q.mu.Unlock()
	return sw.ProcessBatch(pkts, 0) // want `ProcessBatch fan-out while holding q\.mu`
}

func (q *queue) fanOutUnlocked(sw *pipeline.Switch, pkts []*pipeline.Packet) [][]pipeline.Delivery {
	q.mu.Lock()
	n := len(q.items)
	q.mu.Unlock()
	_ = n
	return sw.ProcessBatch(pkts, 0) // no lock held: no finding
}

func (q *queue) fanOutIntoLocked(sw *pipeline.Switch, res *pipeline.Results, pkts []*pipeline.Packet) [][]pipeline.Delivery {
	q.mu.Lock()
	defer q.mu.Unlock()
	return sw.ProcessBatchInto(res, pkts, 0) // want `ProcessBatchInto fan-out while holding q\.mu`
}

func (q *queue) fanOutIntoUnlocked(sw *pipeline.Switch, pkts []*pipeline.Packet) [][]pipeline.Delivery {
	q.mu.Lock()
	res := new(pipeline.Results) // taking a buffer under the lock is fine
	q.mu.Unlock()
	return sw.ProcessBatchInto(res, pkts, 0) // lock released: no finding
}

func (q *queue) publishLocked(sim *netsim.Sim, pubs []netsim.Publication) int {
	q.rw.RLock()
	out := sim.PublishBatch(pubs) // want `PublishBatch fan-out while holding q\.rw`
	q.rw.RUnlock()
	return len(out)
}

func (q *queue) publishIntoLocked(sim *netsim.Sim, res *netsim.Results, pubs []netsim.Publication) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(sim.PublishBatchInto(res, pubs)) // want `PublishBatchInto fan-out while holding q\.mu`
}

func (q *queue) publishUnlocked(sim *netsim.Sim, pubs []netsim.Publication) int {
	q.mu.Lock()
	q.items = q.items[:0]
	q.mu.Unlock()
	return len(sim.PublishBatch(pubs)) // no lock held: no finding
}

func (q *queue) goroutineDoesNotInherit(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	go func() {
		q.ch <- v // runs without the spawner's lock: no finding
	}()
}

func (q *queue) branchLockStaysInBranch(v int, cond bool) {
	if cond {
		q.mu.Lock()
		q.items = append(q.items, v)
		q.mu.Unlock()
	}
	q.ch <- v // no lock held on this path: no finding
}
