package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"camus/internal/controller"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// batchWorkload builds a deterministic subscription set and publication
// list over the k=4 fat tree.
func batchWorkload(t *testing.T, seed int64, n int) ([][]subscription.Expr, []Publication) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	subs := make([][]subscription.Expr, 16)
	for h := range subs {
		for i := 0; i < r.Intn(3); i++ {
			subs[h] = append(subs[h], filter(t, fmt.Sprintf(
				"stock == %s and price > %d", stocks[r.Intn(len(stocks))], r.Intn(80))))
		}
	}
	pubs := make([]Publication, n)
	for i := range pubs {
		pubs[i] = Publication{
			Host:  r.Intn(16),
			Msgs:  []*spec.Message{msg(stocks[r.Intn(len(stocks))], int64(r.Intn(100)), 1)},
			Bytes: 64,
		}
	}
	return subs, pubs
}

// TestPublishBatchDeterminism: PublishBatch is
// byte-identical to the seed's sequential Publish loop — same
// deliveries, same order, same latencies, same traffic counters.
func TestPublishBatchDeterminism(t *testing.T) {
	subs, pubs := batchWorkload(t, 11, 80)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}

	seq := deploy(t, subs, opts)
	want := make([][]HostDelivery, len(pubs))
	for i, p := range pubs {
		want[i] = seq.PublishFlow(p.Host, p.Msgs, p.Bytes, p.Flow)
	}

	batch := deploy(t, subs, opts)
	got := batch.PublishBatch(pubs)

	if !reflect.DeepEqual(want, got) {
		t.Fatal("PublishBatch differs from sequential Publish")
	}
	if wt, gt := seq.Traffic(), batch.Traffic(); !reflect.DeepEqual(wt, gt) {
		t.Errorf("traffic diverged: sequential %+v, batch %+v", wt, gt)
	}
}

// TestPublishBatchParallel: with several goroutines publishing side by
// side — each batch in a wave scratch of its own, runs that meet on a
// switch shard waiting for it — the delivery SETS per publication are
// exact (same hosts, same messages, same hop counts); only round-robin
// path choice may differ. Runs under -race in the tier-1 gate, which is
// what verifies switch/sim concurrency safety.
func TestPublishBatchParallel(t *testing.T) {
	subs, pubs := batchWorkload(t, 13, 120)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}

	seq := deploy(t, subs, opts)
	want := make([][]HostDelivery, len(pubs))
	for i, p := range pubs {
		want[i] = seq.PublishFlow(p.Host, p.Msgs, p.Bytes, p.Flow)
	}

	par := deploy(t, subs, opts)
	const publishers = 4
	got := make([][]HostDelivery, len(pubs))
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		lo, hi := g*len(pubs)/publishers, (g+1)*len(pubs)/publishers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i += 10 {
				j := min(i+10, hi)
				copy(got[i:j], par.PublishBatch(pubs[i:j]))
			}
		}()
	}
	wg.Wait()

	key := func(ds []HostDelivery) []string {
		out := make([]string, 0, len(ds))
		for _, d := range ds {
			out = append(out, fmt.Sprintf("h%d n%d hops%d", d.Host, len(d.Msgs), d.Hops))
		}
		sort.Strings(out)
		return out
	}
	for i := range pubs {
		if !reflect.DeepEqual(key(want[i]), key(got[i])) {
			t.Fatalf("pub %d: parallel deliveries %v, want %v", i, key(got[i]), key(want[i]))
		}
	}

	// Aggregate traffic accounting is conserved: same packets entered
	// the fabric regardless of interleaving (per-layer counts can shift
	// between Agg and Core only through up-port round-robin, which
	// round-robins over equal-layer ports, so totals match exactly).
	wt, gt := seq.Traffic(), par.Traffic()
	if wt.Dropped != gt.Dropped || wt.Looped != gt.Looped {
		t.Errorf("drop/loop diverged: %+v vs %+v", wt, gt)
	}
	var wl, gl int64
	for _, n := range wt.LinkPackets {
		wl += n
	}
	for _, n := range gt.LinkPackets {
		gl += n
	}
	if wl != gl {
		t.Errorf("total link packets: %d vs %d", wl, gl)
	}
}
