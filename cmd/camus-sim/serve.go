package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"camus/camus"
	"camus/internal/formats"
	"camus/internal/workload"
)

// serveConfig collects the -serve soak knobs.
type serveConfig struct {
	k             int
	policy        camus.DeployOptions
	tenants       int
	events        int
	pool          int
	validateEvery int
	workers       int
	addr          string
	logPath       string
	seed          int64
	covering      bool
}

// runServe starts an in-process camusd (daemon over a simulated
// fat-tree) and drives a multi-tenant churn soak against its HTTP API:
// thousands of simulated tenants subscribe and unsubscribe concurrently
// while translation validation samples every Nth batch. It exits
// non-zero if any request fails, /healthz goes red, or a single
// validation failure is recorded — the serve-soak CI gate.
func runServe(cfg serveConfig) {
	app, err := camus.NewAppFromSpec(formats.ITCH)
	check(err)
	net, err := camus.FatTree(cfg.k)
	check(err)
	empty := make([][]camus.Expr, len(net.Hosts))
	dep, err := app.Deploy(net, empty, cfg.policy)
	check(err)
	sim, err := camus.Simulate(dep)
	check(err)

	logPath := cfg.logPath
	if logPath == "" {
		dir, err := os.MkdirTemp("", "camusd-soak")
		check(err)
		defer os.RemoveAll(dir)
		logPath = filepath.Join(dir, "camusd.log")
	}

	svcOpts := []camus.ControlPlaneOption{
		camus.WithPolicy(cfg.policy.Policy, cfg.policy.Alpha),
		camus.WithInstallers(sim.Installers()...),
		camus.WithSeed(cfg.seed),
	}
	if cfg.validateEvery > 0 {
		svcOpts = append(svcOpts, camus.WithValidator(camus.ProveValidator(net), cfg.validateEvery))
	}
	if cfg.covering {
		svcOpts = append(svcOpts, camus.WithCovering())
	}
	d, err := camus.NewDaemon(net, app.Spec,
		camus.WithDaemonEventLog(logPath),
		camus.WithDaemonService(svcOpts...),
		camus.WithDaemonTenancy(camus.WithAutoCreate()))
	check(err)
	addr, err := d.Start(cfg.addr)
	check(err)
	base := "http://" + addr
	fmt.Printf("serve-soak: camusd on %s — %d tenants, %d events, validate-every %d\n",
		base, cfg.tenants, cfg.events, cfg.validateEvery)

	evs, err := workload.TenantChurn(workload.TenantChurnConfig{
		ChurnConfig: workload.ChurnConfig{
			Spec: formats.ITCH, Hosts: len(net.Hosts),
			Events: cfg.events, PoolSize: cfg.pool, Seed: cfg.seed,
			CoverHeavy: cfg.covering,
		},
		Tenants: cfg.tenants,
	})
	check(err)

	// Partition the stream by tenant: per-tenant order is preserved
	// (removes follow their adds) while tenants run concurrently —
	// the daemon's round-robin turns see real cross-tenant contention.
	shards := make([][]workload.TenantChurnEvent, cfg.workers)
	for _, ev := range evs {
		s := tenantShard(ev.Tenant, cfg.workers)
		shards[s] = append(shards[s], ev)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.workers)
	start := time.Now()
	for _, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard []workload.TenantChurnEvent) {
			defer wg.Done()
			if err := driveShard(client, base, shard); err != nil {
				errCh <- err
			}
		}(shard)
	}
	wg.Wait()
	close(errCh)
	elapsed := time.Since(start)
	for err := range errCh {
		check(err)
	}

	// Gate 1: the daemon must still report healthy.
	hb, status, err := get(client, base+"/healthz")
	check(err)
	healthy := status == http.StatusOK && strings.TrimSpace(string(hb)) == "ok"

	// Gate 2: zero validation failures across the whole soak.
	sb, _, err := get(client, base+"/v1/stats")
	check(err)
	var stats struct {
		Service struct {
			Events             int64   `json:"Events"`
			Applied            int64   `json:"Applied"`
			Validations        int64   `json:"Validations"`
			ValidationFailures int64   `json:"ValidationFailures"`
			Failures           int64   `json:"Failures"`
			Covering           bool    `json:"Covering"`
			CoverEntries       int     `json:"CoverEntries"`
			CoverObligations   int     `json:"CoverObligations"`
			CoverSavingsRatio  float64 `json:"CoverSavingsRatio"`
			CoveredAdds        int64   `json:"CoveredAdds"`
			CoverCaptures      int64   `json:"CoverCaptures"`
			CoverPromotions    int64   `json:"CoverPromotions"`
		} `json:"service"`
		Latency struct {
			N     int     `json:"n"`
			P50Ms float64 `json:"p50_ms"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"latency"`
		Tenants  int   `json:"tenants"`
		LogSeq   int64 `json:"log_seq"`
		LogBytes int64 `json:"log_bytes"`
	}
	check(json.Unmarshal(sb, &stats))

	fmt.Printf("serve-soak: %d events in %s (%.0f updates/sec) across %d tenants\n",
		cfg.events, elapsed.Round(time.Millisecond),
		float64(cfg.events)/elapsed.Seconds(), stats.Tenants)
	fmt.Printf("  validations=%d validation-failures=%d failures=%d log: %d records, %d bytes\n",
		stats.Service.Validations, stats.Service.ValidationFailures,
		stats.Service.Failures, stats.LogSeq, stats.LogBytes)
	fmt.Printf("  update latency: n=%d p50=%.3fms p99=%.3fms\n",
		stats.Latency.N, stats.Latency.P50Ms, stats.Latency.P99Ms)
	if stats.Service.Covering {
		fmt.Printf("  covering: %d entries carry %d covered filters (%.0f%% of table state elided)\n",
			stats.Service.CoverEntries, stats.Service.CoverObligations,
			stats.Service.CoverSavingsRatio*100)
		fmt.Printf("  covering totals: %d installs elided, %d roots captured, %d children promoted\n",
			stats.Service.CoveredAdds, stats.Service.CoverCaptures, stats.Service.CoverPromotions)
	}
	fmt.Printf("  healthz: %s", hb)

	check(d.Close())
	if !healthy {
		fmt.Fprintln(os.Stderr, "serve-soak: FAILED — daemon unhealthy")
		os.Exit(1)
	}
	if stats.Service.ValidationFailures > 0 || stats.Service.Failures > 0 {
		fmt.Fprintln(os.Stderr, "serve-soak: FAILED — validation or apply failures")
		os.Exit(1)
	}
	// Gate 3 (covering mode): the soak must have exercised subsumption.
	// The end-state gauges can legitimately read zero — the final live
	// set may hold no implication pair — but the lifetime totals cannot.
	if cfg.covering && stats.Service.CoveredAdds == 0 {
		fmt.Fprintln(os.Stderr, "serve-soak: FAILED — covering enabled but no install was ever elided")
		os.Exit(1)
	}
	fmt.Println("serve-soak: PASS")
}

// tenantShard maps a tenant to a worker; all of a tenant's events stay
// on one worker so per-tenant ordering survives concurrency.
func tenantShard(tenant string, workers int) int {
	h := 0
	for _, c := range tenant {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % workers
}

// driveShard replays one worker's tenants against the daemon API,
// mapping workload keys to server-assigned filter IDs.
func driveShard(client *http.Client, base string, evs []workload.TenantChurnEvent) error {
	ids := make(map[int]int) // churn key → assigned filter ID
	for _, ev := range evs {
		if ev.Add {
			body, _ := json.Marshal(map[string]any{
				"host": ev.Host, "filters": []string{ev.Filter.String()},
			})
			resp, err := do(client, http.MethodPost,
				base+"/v1/tenants/"+ev.Tenant+"/subscriptions", body)
			if err != nil {
				return err
			}
			var out struct {
				IDs []int `json:"ids"`
			}
			if err := json.Unmarshal(resp, &out); err != nil {
				return fmt.Errorf("serve-soak: decode subscribe response: %w", err)
			}
			if len(out.IDs) != 1 {
				return fmt.Errorf("serve-soak: expected 1 id, got %v", out.IDs)
			}
			ids[ev.Key] = out.IDs[0]
		} else {
			body, _ := json.Marshal(map[string]any{
				"host": ev.Host, "ids": []int{ids[ev.Key]},
			})
			if _, err := do(client, http.MethodDelete,
				base+"/v1/tenants/"+ev.Tenant+"/subscriptions", body); err != nil {
				return err
			}
			delete(ids, ev.Key)
		}
	}
	return nil
}

func do(client *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve-soak: %s %s → %d: %s", method, url, resp.StatusCode, b)
	}
	return b, nil
}

func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}
