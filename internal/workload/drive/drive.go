// Package drive is the control-plane load driver: it replays one
// subscription-churn stream (workload.Churn) into a fat tree of
// simulated switches, through the in-process ctlplane.Service or the
// camusd HTTP API. It is not part of internal/workload because it
// imports ctlplane and netsim, whose tests import workload.
package drive

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/ctlplane/server"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/stats"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

// ErrWorkers rejects a Config with fewer than one worker.
var ErrWorkers = errors.New("drive: Workers must be at least 1")

// Config is one load: the fabric, the stream and how it is replayed.
type Config struct {
	// K is the fat-tree arity and Routing the placement policy.
	K       int
	Routing routing.Options
	// Churn is the stream over ITCH filters; Hosts defaults to the
	// fabric's host count, and Seed also seeds the retry jitter.
	Churn workload.ChurnConfig
	// Service options follow the driver's own (routing, installers,
	// seed, validator): covering, apply hooks, another validator.
	Service []ctlplane.Option
	// ValidateEvery > 0 certifies every Nth compiled batch per switch
	// with ctlplane.ProveValidator.
	ValidateEvery int
	// HTTP replays through an in-process camusd (durable event log,
	// auto-created tenants), one request per event; it needs
	// Churn.Tenants ≥ 1. Addr is its listen address (default
	// 127.0.0.1:0), LogPath its log (default: a temporary file).
	HTTP          bool
	Addr, LogPath string
	// Workers replay the stream concurrently; each owns whole tenants,
	// so every tenant's events keep their order.
	Workers int
	// Traffic keeps PublishBatch traffic flowing through the fabric
	// while the stream replays.
	Traffic bool
}

// Driver is a fabric set up for one Run. Sim keeps running after it
// with the programs the replay left; Daemon and URL are set in HTTP
// mode, and the closed daemon's state stays readable.
type Driver struct {
	Net    *topology.Network
	Sim    *netsim.Sim
	Daemon *server.Daemon
	URL    string

	workers int
	evs     []workload.ChurnEvent
	svc     *ctlplane.Service
	target  target
	traffic [][]netsim.Publication
	tmpDir  string
}

// target is what the replay sends events to: the Service or the
// daemon's HTTP API.
type target interface {
	subscribe(tenant string, host int, e subscription.Expr) (id int, err error)
	unsubscribe(tenant string, host, id int) error
}

// New generates the stream and sets up the fabric: an empty deployment,
// its simulator, and the control plane installing into it.
func New(cfg Config) (*Driver, error) {
	if cfg.Workers < 1 {
		return nil, ErrWorkers
	}
	if cfg.HTTP && cfg.Churn.Tenants < 1 {
		return nil, errors.New("drive: HTTP mode needs Churn.Tenants ≥ 1")
	}
	net, err := topology.FatTree(cfg.K)
	if err != nil {
		return nil, err
	}
	cfg.Churn.Spec = formats.ITCH
	if cfg.Churn.Hosts == 0 {
		cfg.Churn.Hosts = len(net.Hosts)
	}
	evs, err := workload.Churn(cfg.Churn)
	if err != nil {
		return nil, err
	}
	dep, err := controller.Deploy(net, formats.ITCH,
		make([][]subscription.Expr, len(net.Hosts)), controller.Options{Routing: cfg.Routing})
	if err != nil {
		return nil, err
	}
	sim, err := netsim.New(dep)
	if err != nil {
		return nil, err
	}
	opts := []ctlplane.Option{
		ctlplane.WithRouting(cfg.Routing),
		ctlplane.WithInstallers(sim.Installers()...),
		ctlplane.WithSeed(cfg.Churn.Seed),
	}
	if cfg.ValidateEvery > 0 {
		opts = append(opts, ctlplane.WithValidator(ctlplane.ProveValidator(net), cfg.ValidateEvery))
	}
	opts = append(opts, cfg.Service...)
	d := &Driver{Net: net, Sim: sim, workers: cfg.Workers, evs: evs}
	if cfg.Traffic {
		d.traffic = trafficPool(len(net.Hosts))
	}
	if !cfg.HTTP {
		if d.svc, err = ctlplane.New(net, formats.ITCH, opts...); err != nil {
			return nil, err
		}
		d.target = service{d.svc}
		return d, nil
	}
	if cfg.LogPath == "" {
		if d.tmpDir, err = os.MkdirTemp("", "camus-drive"); err != nil {
			return nil, err
		}
		cfg.LogPath = filepath.Join(d.tmpDir, "events.log")
	}
	d.Daemon, err = server.New(net, formats.ITCH, server.WithEventLog(cfg.LogPath),
		server.WithService(opts...), server.WithTenancy(ctlplane.WithAutoCreate()))
	var bound string
	if err == nil {
		d.svc = d.Daemon.Service()
		bound, err = d.Daemon.Start(cmp.Or(cfg.Addr, "127.0.0.1:0"))
	}
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	d.URL = "http://" + bound
	d.target = daemonAPI{&http.Client{Timeout: 30 * time.Second}, d.URL}
	return d, nil
}

// Result is what one Run measured.
type Result struct {
	// Elapsed runs from the first event to the quiesced control plane.
	Elapsed time.Duration
	// Latency holds each event's latency in ns as the driver saw it: the
	// Subscribe or Unsubscribe call in service mode (the apply runs
	// behind it), the request's round trip in HTTP mode (the daemon
	// replies once every switch applied).
	Latency stats.Sample
	// Snapshot is the service's counters after the replay; its Latency
	// is the event→all-switches-applied distribution.
	Snapshot ctlplane.Snapshot

	health error // the daemon's /healthz refusal after the replay
}

// UpdatesPerSec is the sustained event rate.
func (r *Result) UpdatesPerSec() float64 { return float64(r.Latency.N()) / r.Elapsed.Seconds() }

// Verdict is nil when no batch failed to apply or validate, no network
// validation failed and the daemon, if any, stayed healthy.
func (r *Result) Verdict() error {
	var err error
	if s := r.Snapshot; s.Failures > 0 || s.NetValidationFailures > 0 {
		err = fmt.Errorf("%d batches failed (%d in validation), %d network validations failed",
			s.Failures, s.ValidationFailures, s.NetValidationFailures)
	}
	return errors.Join(err, r.health)
}

// Run replays the stream, waits for the control plane to quiesce and
// reads the result; Close shuts the control plane down. An error is a
// refused event or a failed request; failures inside the control plane
// are the Result's Verdict.
func (d *Driver) Run() (Result, error) {
	shards := make([][]workload.ChurnEvent, d.workers)
	for _, ev := range d.evs {
		h := fnv.New32a()
		h.Write([]byte(ev.Tenant))
		w := h.Sum32() % uint32(d.workers)
		shards[w] = append(shards[w], ev)
	}
	var res Result
	var mu sync.Mutex // guards res.Latency
	errs := make([]error, d.workers)
	done := make(chan struct{})
	var wg, publisher sync.WaitGroup
	if d.traffic != nil {
		publisher.Add(1)
		go func() {
			defer publisher.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					d.Sim.PublishBatch(d.traffic[i%len(d.traffic)])
				}
			}
		}()
	}
	start := time.Now()
	for w, evs := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make(map[int]int) // churn key → assigned filter ID
			for _, ev := range evs {
				t0 := time.Now()
				var err error
				if ev.Add {
					ids[ev.Key], err = d.target.subscribe(ev.Tenant, ev.Host, ev.Filter)
				} else {
					err = d.target.unsubscribe(ev.Tenant, ev.Host, ids[ev.Key])
				}
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				res.Latency.AddDuration(time.Since(t0))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	d.svc.Quiesce()
	res.Elapsed = time.Since(start)
	close(done)
	publisher.Wait()
	res.Snapshot = d.svc.Stats()
	err := errors.Join(errs...)
	if err == nil && d.Daemon != nil {
		res.health = d.target.(daemonAPI).do(http.MethodGet, "/healthz", nil, nil)
	}
	return res, err
}

// Close shuts the service or the daemon down and removes a temporary
// log directory.
func (d *Driver) Close() error {
	var err error
	if a, ok := d.target.(daemonAPI); ok {
		a.client.CloseIdleConnections() // Shutdown waits 5 s on a dialled, unused one
	}
	if d.Daemon != nil {
		err = d.Daemon.Close()
	} else if d.svc != nil {
		d.svc.Close()
	}
	os.RemoveAll(d.tmpDir) // a no-op for "", when LogPath was given
	return err
}

// service is the in-process target.
type service struct{ svc *ctlplane.Service }

func (s service) subscribe(_ string, host int, e subscription.Expr) (int, error) {
	_, ids, err := s.svc.Subscribe(host, []subscription.Expr{e})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

func (s service) unsubscribe(_ string, host, id int) error {
	_, err := s.svc.Unsubscribe(host, []int{id})
	return err
}

// daemonAPI is the HTTP target: one request per event on the tenant's
// subscriptions resource.
type daemonAPI struct {
	client *http.Client
	base   string
}

func (a daemonAPI) subscribe(tenant string, host int, e subscription.Expr) (int, error) {
	var out struct{ IDs []int } // the reply's "ids"
	err := a.do(http.MethodPost, "/v1/tenants/"+tenant+"/subscriptions",
		map[string]any{"host": host, "filters": []string{e.String()}}, &out)
	if err == nil && len(out.IDs) != 1 {
		err = fmt.Errorf("drive: subscribe reply holds ids %v, want one", out.IDs)
	}
	if err != nil {
		return 0, err
	}
	return out.IDs[0], nil
}

func (a daemonAPI) unsubscribe(tenant string, host, id int) error {
	return a.do(http.MethodDelete, "/v1/tenants/"+tenant+"/subscriptions",
		map[string]any{"host": host, "ids": []int{id}}, nil)
}

// do sends body as JSON and decodes a 200 reply into out, if any;
// another status is an error carrying the reply.
func (a daemonAPI) do(method, path string, body, out any) error {
	buf, _ := json.Marshal(body) // maps of ints and strings marshal; nil sends "null"
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("drive: %s %s → %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	case out != nil:
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("drive: decode %s %s reply: %w", method, path, err)
		}
	}
	return nil
}

// trafficPool builds the background publications before the replay
// starts, to be re-sent round-robin: a publisher that built fresh
// messages per spin would put allocations proportional to wall time,
// not to control-plane work, inside a benchmark's timed region.
func trafficPool(hosts int) [][]netsim.Publication {
	r := rand.New(rand.NewSource(4))
	stocks := workload.DefaultSymbols(100)
	pool := make([][]netsim.Publication, 64)
	for i := range pool {
		pool[i] = make([]netsim.Publication, 16)
		for j := range pool[i] {
			m := spec.NewMessage(formats.ITCH)
			m.MustSet("stock", spec.StrVal(stocks[r.Intn(len(stocks))]))
			m.MustSet("price", spec.IntVal(int64(r.Intn(1000))))
			m.MustSet("shares", spec.IntVal(1))
			pool[i][j] = netsim.Publication{Host: r.Intn(hosts), Msgs: []*spec.Message{m}, Bytes: 64}
		}
	}
	return pool
}
