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

// TestPublishBatchDeterminism: a batch is byte-identical to the seed's
// sequential Publish loop — same deliveries, same order, same latencies,
// same traffic counters.
func TestPublishBatchDeterminism(t *testing.T) {
	subs, pubs := batchWorkload(t, 11, 80)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}

	seq := deploy(t, subs, opts)
	want := make([][]HostDelivery, len(pubs))
	for i, p := range pubs {
		want[i] = seq.Publish(p.Host, p.Msgs, p.Bytes)
	}

	batch := deploy(t, subs, opts)
	var res Results
	got := batch.PublishBatchInto(&res, pubs)

	if !reflect.DeepEqual(want, got) {
		t.Fatal("PublishBatchInto differs from sequential Publish")
	}
	if wt, gt := seq.Traffic(), batch.Traffic(); !reflect.DeepEqual(wt, gt) {
		t.Errorf("traffic diverged: sequential %+v, batch %+v", wt, gt)
	}
}

// TestPublishBatchParallel: with several goroutines publishing side by
// side — each batch in a wave scratch and a Results of its own, runs
// that meet on a switch waiting for it — the delivery SETS per publication are
// exact (same hosts, same messages, same hop counts); only round-robin
// path choice may differ. Runs under -race in the tier-1 gate, which is
// what verifies switch/sim concurrency safety.
func TestPublishBatchParallel(t *testing.T) {
	subs, pubs := batchWorkload(t, 13, 120)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}

	seq := deploy(t, subs, opts)
	want := make([][]HostDelivery, len(pubs))
	for i, p := range pubs {
		want[i] = seq.Publish(p.Host, p.Msgs, p.Bytes)
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
				copy(got[i:j], par.PublishBatchInto(new(Results), pubs[i:j]))
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

// cloneResults deep-copies a batch's results out of the Results they
// live in.
func cloneResults(out [][]HostDelivery) [][]HostDelivery {
	c := make([][]HostDelivery, len(out))
	for i, ds := range out {
		for _, d := range ds {
			d.Msgs = append([]*spec.Message(nil), d.Msgs...)
			c[i] = append(c[i], d)
		}
	}
	return c
}

// sequential publishes pubs one by one on a fresh deployment, the
// heap-fresh reference the batch contract tests compare against.
func sequential(t *testing.T, subs [][]subscription.Expr, opts controller.Options, pubs []Publication) [][]HostDelivery {
	t.Helper()
	seq := deploy(t, subs, opts)
	want := make([][]HostDelivery, len(pubs))
	for i, p := range pubs {
		want[i] = seq.Publish(p.Host, p.Msgs, p.Bytes)
	}
	return want
}

// TestPublishBatchRecycles: PublishBatch lays its results out in the
// Sim's own Results, so a second call recycles the first call's index,
// deliveries and message pointers, and what the first call returned now
// reads the second batch.
func TestPublishBatchRecycles(t *testing.T) {
	subs, pubs := batchWorkload(t, 17, 64)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	sim := deploy(t, subs, opts)
	first := sim.PublishBatch(pubs[:32])
	if len(first) != 32 {
		t.Fatalf("%d results for 32 publications", len(first))
	}
	second := sim.PublishBatch(pubs[32:])
	if &first[0] != &second[0] {
		t.Fatal("the second PublishBatch did not recycle the first call's index")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the first call's results do not read the second batch")
	}
	want := sequential(t, subs, opts, pubs)
	if !reflect.DeepEqual(cloneResults(second), want[32:]) {
		t.Fatal("second PublishBatch differs from sequential Publish")
	}
	if st := sim.Traffic(); st.BatchFallbacks != 0 {
		t.Fatalf("uncontended batches counted as fallbacks: %+v", st)
	}
}

// TestPublishBatchIntoKeepsBoth: results laid out in two Results both
// stay valid, whatever the other one is used for.
func TestPublishBatchIntoKeepsBoth(t *testing.T) {
	subs, pubs := batchWorkload(t, 19, 96)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	want := sequential(t, subs, opts, pubs)
	sim := deploy(t, subs, opts)
	var a, b Results
	gotA := sim.PublishBatchInto(&a, pubs[:48])
	gotB := sim.PublishBatchInto(&b, pubs[48:])
	sim.PublishBatch(pubs) // the Sim's own Results touch neither
	if !reflect.DeepEqual(gotA, want[:48]) {
		t.Error("first Results lost its batch")
	}
	if !reflect.DeepEqual(gotB, want[48:]) {
		t.Error("second Results lost its batch")
	}
}

// TestPublishSurvivesBatches: Publish results are heap-fresh, unchanged
// by any later batch.
func TestPublishSurvivesBatches(t *testing.T) {
	subs, pubs := batchWorkload(t, 23, 64)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	sim := deploy(t, subs, opts)
	kept := make([][]HostDelivery, len(pubs))
	for i, p := range pubs {
		kept[i] = sim.Publish(p.Host, p.Msgs, p.Bytes)
	}
	want := cloneResults(kept)
	delivered := 0
	for _, ds := range want {
		delivered += len(ds)
	}
	if delivered == 0 {
		t.Fatal("workload delivered nothing")
	}
	var res Results
	for range 3 {
		sim.PublishBatch(pubs)
		sim.PublishBatchInto(&res, pubs)
	}
	if !reflect.DeepEqual(cloneResults(kept), want) {
		t.Fatal("a later batch changed what Publish returned")
	}
}

// TestPublishBatchFallbackCounted: a PublishBatch that finds the Sim's
// own Results in use lays its deliveries out in a fresh one — the
// degraded mode of the batch entry point — and says so in Traffic();
// its deliveries are those of an uncontended call, and the busy caller's
// results are left alone.
func TestPublishBatchFallbackCounted(t *testing.T) {
	subs, pubs := batchWorkload(t, 29, 16)
	opts := controller.Options{Routing: routing.Options{Policy: routing.TrafficReduction}}
	sim := deploy(t, subs, opts)
	held := sim.PublishBatch(pubs[:8])
	want := cloneResults(held)
	if st := sim.Traffic(); st.BatchFallbacks != 0 {
		t.Fatalf("an uncontended batch counted as a fallback: %+v", st)
	}
	// Another caller is mid-batch: it holds the Sim's Results.
	locked, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim.batch.mu.Lock()
		close(locked)
		<-release
		sim.batch.mu.Unlock()
	}()
	<-locked
	got := sim.PublishBatch(pubs[8:])
	close(release)
	<-done
	if &got[0] == &held[0] {
		t.Fatal("the fallback recycled the busy Results")
	}
	if !reflect.DeepEqual(cloneResults(held), want) {
		t.Fatal("the fallback changed the busy caller's results")
	}
	if ref := sequential(t, subs, opts, pubs); !reflect.DeepEqual(cloneResults(got), ref[8:]) {
		t.Fatalf("fallback delivered %+v, sequential %+v", got, ref[8:])
	}
	if st := sim.Traffic(); st.BatchFallbacks != 1 {
		t.Fatalf("traffic after one fallback = %+v", st)
	}
}
