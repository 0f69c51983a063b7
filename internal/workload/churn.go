package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"camus/internal/spec"
	"camus/internal/subscription"
)

// ChurnConfig configures a randomized subscription-churn workload: the
// event stream the live control plane (internal/ctlplane) consumes.
// Arrivals are Poisson, filter popularity is Zipf over a fixed pool
// (popular filters are subscribed — and therefore deduplicated — far
// more often than tail filters), and the add:remove mix is
// configurable.
type ChurnConfig struct {
	// Spec is the message spec filters are generated against (required).
	Spec *spec.Spec
	// PoolSize is the number of distinct filters to generate (default
	// 64); their popularity is Zipf with s = 1.2.
	PoolSize int
	// Hosts is the subscriber population (required).
	Hosts int
	// Events is the stream length (default 1000).
	Events int
	// Rate is the mean event arrival rate in events/second for the
	// Poisson process (default 1000).
	Rate float64
	// AddFraction is the target fraction of subscribe events (default
	// 0.5; removals are drawn from the simulated live set, so the
	// realized mix leans toward adds while the set is small).
	AddFraction float64
	// CoverHeavy switches pool generation from independent Siena filters
	// to Zipf-nested refinement chains (CoverChains): broad filters sit at
	// the popular front of the pool with refinement tails behind them, so
	// the stream exercises subsumption covering. CoverDepth is the chain
	// length (default 4).
	CoverHeavy bool
	CoverDepth int
	// Tenants, when positive, gives each Add one of that many simulated
	// tenants, Zipf-skewed (s = 1.2) so a few hot tenants dominate, and
	// each Remove the tenant of its Add: every tenant's subsequence is
	// consistent on its own, so a harness may drive tenants concurrently.
	Tenants int
	// Seed makes the stream deterministic.
	Seed int64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.Events <= 0 {
		c.Events = 1000
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.AddFraction <= 0 {
		c.AddFraction = 0.5
	}
	if c.CoverDepth <= 0 {
		c.CoverDepth = 4
	}
	return c
}

// ChurnEvent is one subscription change. Add events carry a fresh Key
// and the filter expression; Remove events name the Key of a
// still-live prior Add (the generator tracks the live set, so every
// removal is valid). Callers map Key to whatever handle their control
// plane hands back.
type ChurnEvent struct {
	// At is the Poisson arrival offset from the stream start.
	At   time.Duration
	Host int
	Add  bool
	// Key identifies the subscription instance: assigned on Add,
	// referenced on Remove.
	Key int
	// Filter is the subscribed expression (set on both event kinds).
	Filter subscription.Expr
	// Tenant names the owning tenant ("tenant-0042"); empty unless
	// ChurnConfig.Tenants is positive.
	Tenant string
}

// Churn generates a deterministic subscription-churn event stream.
func Churn(cfg ChurnConfig) ([]ChurnEvent, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("workload: ChurnConfig.Hosts required")
	}
	var pool []subscription.Expr
	var err error
	if cfg.CoverHeavy {
		depth := cfg.CoverDepth
		pool, err = CoverChains(CoverChainsConfig{
			Spec: cfg.Spec, Chains: (cfg.PoolSize + depth - 1) / depth, Depth: depth, Seed: cfg.Seed,
		})
	} else {
		pool, err = Siena(SienaConfig{Spec: cfg.Spec, Filters: cfg.PoolSize, Seed: cfg.Seed})
	}
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(r, 1.2, 1, uint64(len(pool)-1))
	var tenant *rand.Zipf
	if cfg.Tenants > 0 {
		// A stream of its own: the events are the same for any tenant
		// population.
		tr := rand.New(rand.NewSource(cfg.Seed + 0x7e9a97))
		tenant = rand.NewZipf(tr, 1.2, 1, uint64(cfg.Tenants-1))
	}

	var live []ChurnEvent // the Adds not yet removed
	out := make([]ChurnEvent, 0, cfg.Events)
	var at time.Duration
	adds := 0
	for len(out) < cfg.Events {
		// Exponential inter-arrival for a Poisson process of rate λ.
		at += time.Duration(-math.Log(1-r.Float64()) / cfg.Rate * float64(time.Second))
		if len(live) == 0 || r.Float64() < cfg.AddFraction {
			ev := ChurnEvent{
				At:     at,
				Host:   r.Intn(cfg.Hosts),
				Add:    true,
				Key:    adds,
				Filter: pool[zipf.Uint64()],
			}
			if tenant != nil {
				ev.Tenant = fmt.Sprintf("tenant-%04d", tenant.Uint64())
			}
			adds++
			live = append(live, ev)
			out = append(out, ev)
		} else {
			i := r.Intn(len(live))
			ev := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ev.At, ev.Add = at, false
			out = append(out, ev)
		}
	}
	return out, nil
}
