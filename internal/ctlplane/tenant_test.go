package ctlplane

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"camus/internal/routing"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// newTenantsForTest stacks a tenancy layer over a recording-installer
// service.
func newTenantsForTest(t *testing.T, net *topology.Network, topts []TenantOption, sopts ...Option) (*Tenants, *Service) {
	t.Helper()
	svc, _ := newServiceForTest(t, net, append(sopts,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))...)
	tn := NewTenants(svc, topts...)
	t.Cleanup(tn.Close)
	return tn, svc
}

// TestTenantQuotaRejection: MaxSubscriptions is a hard admission wall —
// the rejected event never reaches the shared reconciler — and
// unsubscribing frees headroom.
func TestTenantQuotaRejection(t *testing.T) {
	net := topology.MustFatTree(4)
	tn, _ := newTenantsForTest(t, net, nil)
	if err := tn.CreateTenant("acme", TenantQuota{MaxSubscriptions: 2}); err != nil {
		t.Fatal(err)
	}
	_, ids, err := tn.Subscribe("acme", 0, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("acme", 1, []subscription.Expr{filter(t, "stock == MSFT")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("acme", 2, []subscription.Expr{filter(t, "stock == AAPL")}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third subscribe = %v, want ErrQuotaExceeded", err)
	}
	// A multi-filter subscribe that would cross the cap is refused as a
	// unit, not partially admitted.
	if err := tn.CreateTenant("batch", TenantQuota{MaxSubscriptions: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("batch", 0, []subscription.Expr{
		filter(t, "stock == GOOGL"), filter(t, "stock == MSFT"), filter(t, "stock == FB"),
	}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-cap batch subscribe = %v, want ErrQuotaExceeded", err)
	}
	// Freeing a slot restores admission.
	if _, err := tn.Unsubscribe("acme", 0, ids); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("acme", 3, []subscription.Expr{filter(t, "stock == FB")}); err != nil {
		t.Fatalf("subscribe after freeing quota: %v", err)
	}
	snap, err := tn.Snapshot("acme")
	if err != nil {
		t.Fatal(err)
	}
	if snap.RejectedQuota != 1 || snap.Live != 2 {
		t.Errorf("snapshot = live %d rejectedQuota %d, want 2/1", snap.Live, snap.RejectedQuota)
	}
	// Unknown tenants are refused outright without auto-create.
	if _, _, err := tn.Subscribe("ghost", 0, []subscription.Expr{filter(t, "price > 1")}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant subscribe = %v, want ErrUnknownTenant", err)
	}
}

// TestTenantRateLimit: the token bucket admits Burst events instantly,
// then refuses until it refills.
func TestTenantRateLimit(t *testing.T) {
	net := topology.MustFatTree(4)
	tn, _ := newTenantsForTest(t, net, nil)
	// ~0 refill over the test's lifetime: only the burst is spendable.
	if err := tn.CreateTenant("spam", TenantQuota{EventsPerSec: 0.001, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := tn.Subscribe("spam", i, []subscription.Expr{
			filter(t, fmt.Sprintf("price > %d", i)),
		}); err != nil {
			t.Fatalf("burst subscribe %d: %v", i, err)
		}
	}
	if _, _, err := tn.Subscribe("spam", 2, []subscription.Expr{filter(t, "price > 9")}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-burst subscribe = %v, want ErrRateLimited", err)
	}
	// Unsubscribes spend from the same bucket.
	if _, err := tn.Unsubscribe("spam", 0, []int{0}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-burst unsubscribe = %v, want ErrRateLimited", err)
	}
	snap, _ := tn.Snapshot("spam")
	if snap.RejectedRate != 2 {
		t.Errorf("RejectedRate = %d, want 2", snap.RejectedRate)
	}
}

// TestTenantOwnership: one tenant can never unsubscribe another's
// filters — the namespace check fires before the shared reconciler is
// reached.
func TestTenantOwnership(t *testing.T) {
	net := topology.MustFatTree(4)
	tn, _ := newTenantsForTest(t, net, nil)
	for _, name := range []string{"alice", "bob"} {
		if err := tn.CreateTenant(name, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	_, ids, err := tn.Subscribe("alice", 0, []subscription.Expr{filter(t, "stock == GOOGL")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Unsubscribe("bob", 0, ids); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("cross-tenant unsubscribe = %v, want ErrUnknownFilter", err)
	}
	// Same tenant, wrong host: also refused.
	if _, err := tn.Unsubscribe("alice", 1, ids); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("wrong-host unsubscribe = %v, want ErrUnknownFilter", err)
	}
	if _, err := tn.Unsubscribe("alice", 0, ids); err != nil {
		t.Errorf("owner unsubscribe: %v", err)
	}
}

// TestCrossTenantFairness: a hostile neighbor flooding its own queue
// must not starve a quiet tenant. The round-robin dispatcher hands one
// event per tenant per turn, so the victim's few events ride alongside
// the flood — when the victim finishes, the hostile backlog must still
// be mostly intact, and no single victim event may have waited for the
// whole flood to drain.
func TestCrossTenantFairness(t *testing.T) {
	const (
		hostileOps = 120
		victimOps  = 8
	)
	net := topology.MustFatTree(4)
	tn, _ := newTenantsForTest(t, net, nil,
		WithQueueDepth(1),
		WithApplyHook(func(sw, attempt int) error {
			time.Sleep(200 * time.Microsecond) // slow applies → dispatch slots are scarce
			return nil
		}))
	for _, name := range []string{"hostile", "victim"} {
		if err := tn.CreateTenant(name, TenantQuota{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < hostileOps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn.Subscribe("hostile", i%4, []subscription.Expr{
				filter(t, fmt.Sprintf("price > %d", i)),
			})
		}(i)
	}
	// Wait until the flood is queued so the victim truly contends.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, _ := tn.Snapshot("hostile")
		if snap.Pending >= hostileOps*3/4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hostile queue never filled: pending %d", snap.Pending)
		}
		time.Sleep(time.Millisecond)
	}
	var worst time.Duration
	for i := 0; i < victimOps; i++ {
		start := time.Now()
		if _, _, err := tn.Subscribe("victim", 8+i%4, []subscription.Expr{
			filter(t, fmt.Sprintf("stock == GOOGL and price > %d", i)),
		}); err != nil {
			t.Fatalf("victim subscribe %d: %v", i, err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	hostile, _ := tn.Snapshot("hostile")
	if hostile.Pending < hostileOps/2 {
		t.Errorf("victim finished only after the flood drained (hostile pending %d of %d) — no fairness",
			hostile.Pending, hostileOps)
	}
	// Generous wall-clock bound: each victim event waits one round-robin
	// turn, not the whole hostile backlog.
	if worst > 2*time.Second {
		t.Errorf("victim p100 latency %v — starved behind hostile backlog", worst)
	}
	wg.Wait()
}

// TestWALCrashRecovery is the durability certification: kill the
// control plane mid-churn (synced log, torn final record, no clean
// shutdown), replay the log into a fresh service, and require the
// reconstructed state to be Canonical()-identical per switch with the
// same filter registry — refcounts included, since a divergent
// refcount would change some program or some later removal.
func TestWALCrashRecovery(t *testing.T) {
	net := topology.MustFatTree(4)
	path := filepath.Join(t.TempDir(), "events.log")
	log1, err := OpenLog(path, WithFsyncEveryN(4))
	if err != nil {
		t.Fatal(err)
	}
	svc1, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction, Alpha: 10}))
	tn1 := NewTenants(svc1, WithEventLog(log1))
	tenants := []string{"alpha", "beta", "gamma"}
	for _, name := range tenants {
		if err := tn1.CreateTenant(name, TenantQuota{MaxSubscriptions: 100}); err != nil {
			t.Fatal(err)
		}
	}
	stocks := []string{"GOOGL", "MSFT", "AAPL", "FB"}
	type liveID struct{ host, id int }
	live := map[string][]liveID{}
	for i := 0; i < 120; i++ {
		name := tenants[i%len(tenants)]
		if ids := live[name]; len(ids) > 0 && i%5 == 4 {
			lf := ids[0]
			live[name] = ids[1:]
			if _, err := tn1.Unsubscribe(name, lf.host, []int{lf.id}); err != nil {
				t.Fatalf("op %d: unsubscribe: %v", i, err)
			}
			continue
		}
		host := i % len(net.Hosts)
		// Repeats across tenants exercise shared-place refcounts: the
		// same (port, filter) pair subscribed by several tenants.
		src := fmt.Sprintf("stock == %s and price > %d", stocks[i%len(stocks)], i%7)
		_, ids, err := tn1.Subscribe(name, host, []subscription.Expr{filter(t, src)})
		if err != nil {
			t.Fatalf("op %d: subscribe: %v", i, err)
		}
		live[name] = append(live[name], liveID{host: host, id: ids[0]})
	}
	svc1.Quiesce()

	// Pre-crash ground truth.
	wantProgs := make([]string, len(net.Switches))
	for sw := range net.Switches {
		wantProgs[sw] = svc1.Program(sw).Canonical().String()
	}
	wantFilters := make(map[int][]int)
	for h := range net.Hosts {
		wantFilters[h] = svc1.Filters(h)
	}
	wantLive := map[string]map[int][]int{}
	for _, name := range tenants {
		lf, err := tn1.LiveFilters(name)
		if err != nil {
			t.Fatal(err)
		}
		wantLive[name] = lf
	}
	wantSeq := log1.Seq()

	// "Crash": records are synced, but the process dies mid-append —
	// no clean Close, and a torn record at the tail.
	if err := log1.Sync(); err != nil {
		t.Fatal(err)
	}
	tn1.Close()
	if err := log1.Close(); err != nil { // release the handle; durability came from Sync above
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 'g', 'a', 'r', 'b'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: open (truncates the torn tail), replay into a fresh
	// service, certify.
	log2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if log2.Seq() != wantSeq {
		t.Fatalf("recovered log seq %d, want %d (torn tail must not count)", log2.Seq(), wantSeq)
	}
	svc2, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction, Alpha: 10}))
	tn2 := NewTenants(svc2, WithEventLog(log2))
	defer tn2.Close()
	n, err := tn2.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if int64(n) != wantSeq {
		t.Fatalf("replayed %d records, want %d", n, wantSeq)
	}
	for sw := range net.Switches {
		got := svc2.Program(sw).Canonical().String()
		if got != wantProgs[sw] {
			t.Errorf("switch %d: replayed program differs from pre-crash program", sw)
		}
	}
	for h := range net.Hosts {
		got := svc2.Filters(h)
		if fmt.Sprint(got) != fmt.Sprint(wantFilters[h]) {
			t.Errorf("host %d: replayed filters %v, want %v", h, got, wantFilters[h])
		}
	}
	for _, name := range tenants {
		got, err := tn2.LiveFilters(name)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantLive[name]) {
			t.Errorf("tenant %s: replayed live set %v, want %v", name, got, wantLive[name])
		}
	}

	// The recovered plane stays writable: new events append after the
	// truncated tail and interoperate with replayed refcounts.
	name := tenants[0]
	lf := live[name][0]
	if _, err := tn2.Unsubscribe(name, lf.host, []int{lf.id}); err != nil {
		t.Fatalf("post-recovery unsubscribe of replayed filter: %v", err)
	}
	if _, _, err := tn2.Subscribe(name, 0, []subscription.Expr{filter(t, "stock == HP")}); err != nil {
		t.Fatalf("post-recovery subscribe: %v", err)
	}
	if log2.Seq() != wantSeq+2 {
		t.Errorf("post-recovery log seq %d, want %d", log2.Seq(), wantSeq+2)
	}
}

// TestLogTornTail: the low-level framing contract — a torn or corrupt
// tail is truncated on open, complete records survive, and appends
// resume at the right sequence number.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(&LogRecord{Op: "tenant", Tenant: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Torn tail: a length prefix promising 256 bytes, 4 bytes present.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef})
	f.Close()

	l2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Seq() != 5 {
		t.Fatalf("Seq after torn-tail open = %d, want 5", l2.Seq())
	}
	if l2.Truncated() != 8 {
		t.Errorf("Truncated = %d, want 8 (the torn tail)", l2.Truncated())
	}
	var seen []string
	n, err := l2.Replay(func(rec *LogRecord) error {
		seen = append(seen, rec.Tenant)
		return nil
	})
	if err != nil || n != 5 {
		t.Fatalf("Replay = %d, %v; want 5, nil", n, err)
	}
	if err := l2.Append(&LogRecord{Op: "tenant", Tenant: "t5"}); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 6 {
		t.Errorf("Seq after append = %d, want 6", l2.Seq())
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err = l2.Replay(func(rec *LogRecord) error { return nil })
	if err != nil || n != 6 {
		t.Errorf("Replay after append = %d, %v; want 6, nil", n, err)
	}
}

// TestLogCorruptionDetected: a flipped byte in the middle of the log —
// committed, fsynced records after it — is not a torn tail and must
// fail the open loudly instead of silently truncating away everything
// behind it.
func TestLogCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.log")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(&LogRecord{Op: "tenant", Tenant: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // inside the first record's JSON payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("OpenLog on mid-log corruption = %v, want checksum error", err)
	}
}

// TestWALAutoCreateTenantRecordOrdering: an auto-created tenant's
// "tenant" record must land in the log before any of its event
// records, no matter how the dispatcher races the creating caller —
// and even when the tenant's very first event is rejected at
// admission. Pre-fix, both shapes produced a log whose replay died
// with "subscribe for unknown tenant".
func TestWALAutoCreateTenantRecordOrdering(t *testing.T) {
	net := topology.MustFatTree(4)
	path := filepath.Join(t.TempDir(), "auto.log")
	log1, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	svc1, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	tn1 := NewTenants(svc1, WithEventLog(log1), WithAutoCreate(),
		WithDefaultQuota(TenantQuota{MaxSubscriptions: 4}))

	// Deterministic shape: the tenant is minted by a quota-rejected
	// event; its tenant record must be durable anyway.
	if _, _, err := tn1.Subscribe("reject-first", 0, []subscription.Expr{
		filter(t, "price > 1"), filter(t, "price > 2"), filter(t, "price > 3"),
		filter(t, "price > 4"), filter(t, "price > 5"),
	}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota first subscribe = %v, want ErrQuotaExceeded", err)
	}
	if _, _, err := tn1.Subscribe("reject-first", 0, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
		t.Fatal(err)
	}
	// Racy shape: many fresh tenants subscribing concurrently, so the
	// dispatcher is busy appending "sub" records while callers append
	// "tenant" records.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := tn1.Subscribe(fmt.Sprintf("tn%02d", i), i%len(net.Hosts), []subscription.Expr{
				filter(t, fmt.Sprintf("price > %d", i)),
			}); err != nil {
				t.Errorf("tenant %d subscribe: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	tn1.Close()
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	svc2, _ := newServiceForTest(t, net,
		WithRouting(routing.Options{Policy: routing.TrafficReduction}))
	tn2 := NewTenants(svc2, WithEventLog(log2))
	defer tn2.Close()
	if _, err := tn2.Replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := tn2.TenantCount(); got != 17 {
		t.Errorf("replayed TenantCount = %d, want 17", got)
	}
}

// TestTenantRequotaKeepsTokens: re-PUTting a tenant must not refill
// its token bucket — otherwise a tenant re-quotas itself before every
// subscribe and the EventsPerSec admission control is a no-op.
func TestTenantRequotaKeepsTokens(t *testing.T) {
	net := topology.MustFatTree(4)
	tn, _ := newTenantsForTest(t, net, nil)
	quota := TenantQuota{EventsPerSec: 0.001, Burst: 2}
	if err := tn.CreateTenant("spam", quota); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := tn.Subscribe("spam", i, []subscription.Expr{
			filter(t, fmt.Sprintf("price > %d", i)),
		}); err != nil {
			t.Fatalf("burst subscribe %d: %v", i, err)
		}
	}
	// The bucket is empty; a re-PUT with the same quota must not refill it.
	if err := tn.CreateTenant("spam", quota); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("spam", 2, []subscription.Expr{filter(t, "price > 9")}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-requota subscribe = %v, want ErrRateLimited (re-quota refilled the bucket)", err)
	}
	// Nor may a larger burst mint tokens retroactively.
	if err := tn.CreateTenant("spam", TenantQuota{EventsPerSec: 0.001, Burst: 100}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("spam", 3, []subscription.Expr{filter(t, "price > 10")}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-burst-raise subscribe = %v, want ErrRateLimited", err)
	}
}

// TestTenantAutoCreate: WithAutoCreate mints tenants on first use with
// the default quota — the thousands-of-tenants soak shape.
func TestTenantAutoCreate(t *testing.T) {
	net := topology.MustFatTree(4)
	tn, _ := newTenantsForTest(t, net, []TenantOption{
		WithAutoCreate(),
		WithDefaultQuota(TenantQuota{MaxSubscriptions: 1}),
	})
	if _, _, err := tn.Subscribe("fresh", 0, []subscription.Expr{filter(t, "stock == GOOGL")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tn.Subscribe("fresh", 1, []subscription.Expr{filter(t, "stock == MSFT")}); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("default quota not applied to auto-created tenant: %v", err)
	}
	if tn.TenantCount() != 1 {
		t.Errorf("TenantCount = %d, want 1", tn.TenantCount())
	}
	snaps := tn.Snapshots()
	if len(snaps) != 1 || snaps[0].Name != "fresh" || snaps[0].Live != 1 {
		t.Errorf("Snapshots = %+v", snaps)
	}
}

// TestTenantLatencyBounded: a tenant's latency record is the service's
// window, not its whole history: after twice latencyWindow observations
// N counts all of them while the record retains one window, so a
// /metrics scrape sorts as much as after the first window.
func TestTenantLatencyBounded(t *testing.T) {
	tns, _ := newTenantsForTest(t, topology.MustFatTree(4), nil)
	if err := tns.CreateTenant("acme", TenantQuota{}); err != nil {
		t.Fatal(err)
	}
	const n = 2 * latencyWindow
	tns.mu.Lock()
	tn := tns.byName["acme"]
	for i := 0; i < n; i++ {
		tn.latency.add(float64(i))
	}
	held := len(tn.latency.ring)
	tns.mu.Unlock()
	if held > latencyWindow {
		t.Errorf("tenant retains %d samples, want <= %d", held, latencyWindow)
	}
	snap, err := tns.Snapshot("acme")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Latency.N != n || snap.Latency.Max != n-1 {
		t.Errorf("Latency N = %d, Max = %v; want %d and %v", snap.Latency.N, snap.Latency.Max, n, time.Duration(n-1))
	}
	if lo := time.Duration(latencyWindow); snap.Latency.P50 < lo {
		t.Errorf("P50 = %v is older than the latest window (>= %v)", snap.Latency.P50, lo)
	}
}
