package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/ctlplane/server"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/subscription"
	"camus/internal/topology"
	"camus/internal/workload"
)

const (
	ctlSymbols = 100
	// The preloaded filters share ctlPreloadSymbols symbols, three
	// filters (on different hosts, with different thresholds) each.
	ctlPreloadSymbols = 64
	// ctlPreloadPerHost × 16 hosts = 192 live filters, a live set at
	// which Incremental.Apply's O(program) rebuild dominates an update.
	ctlPreloadPerHost = 12
	// ctlThresholds bands of price thresholds.
	ctlThresholds = 19
	// An unsubscribe removes the filter subscribed ctlLag subscribes
	// earlier, not the one just added, whose compile state is still hot.
	ctlLag = 4
	// fabricChecks publications verify deliveries after the churn.
	fabricChecks = 2000
	// settleEvents requests of churn precede the delivery check and the
	// fabric loop of the untraced run, so both see tables the incremental
	// path produced, not only the preload.
	settleEvents = 16
	// fabricFrames ITCH frames are replayed into the fabric, each from
	// the next host in turn.
	fabricFrames = 1 << 14
	ctlTenant    = "bench"
)

var ctlRouting = routing.Options{Policy: routing.TrafficReduction, Alpha: 10}

// ctlInputs is everything ctl_churn derives from the seed besides the
// frames. The shape of the workload is the same for every seed — which
// filters name which symbol, in which order their thresholds fall, which
// host each request names, whether a subscribed symbol is new to the
// network — because an update's cost swings by 2× with that shape, and
// the share of the feed the filters accept (the feed's symbol popularity
// is fixed) with which symbols they name. The seed moves every threshold
// inside its band.
type ctlInputs struct {
	jitter  [ctlThresholds]int
	preload [][]string // filter text by host
}

func generateCtl(seed int64, hosts, perHost int) ctlInputs {
	r := rand.New(rand.NewSource(seed))
	in := ctlInputs{preload: make([][]string, hosts)}
	for k := range in.jitter {
		in.jitter[k] = 10 * r.Intn(5)
	}
	for h := range in.preload {
		for j := 0; j < perHost; j++ {
			idx := h*perHost + j
			in.preload[h] = append(in.preload[h],
				in.filter(idx%ctlPreloadSymbols, idx/ctlPreloadSymbols*6+idx%ctlPreloadSymbols*3))
		}
	}
	return in
}

var ctlSyms = workload.DefaultSymbols(ctlSymbols)

// filter: thresholds are multiples of 10 in bands 50 apart, so the α=10
// discretization of the TR policy leaves them exact.
func (in ctlInputs) filter(sym, step int) string {
	k := step % ctlThresholds
	return fmt.Sprintf("stock == %s and price > %d", ctlSyms[sym%ctlSymbols], 50*(1+k)+in.jitter[k])
}

// subscribe returns the host and filter of the j-th subscribe of the
// churn: hosts in turn, symbols striding through all hundred (so about
// one in three is new to the network), thresholds striding likewise.
func (in ctlInputs) subscribe(j int) (host int, filter string) {
	return j % len(in.preload), in.filter(j*37, j*7)
}

func (in ctlInputs) digest() string {
	var b strings.Builder
	for _, fs := range in.preload {
		b.WriteString(strings.Join(fs, "\n"))
	}
	for j := 0; j < 256; j++ {
		fmt.Fprintln(&b, fmt.Sprint(in.subscribe(j)))
	}
	return b.String()
}

// liveID is one filter the client owns.
type liveID struct{ host, id int }

// ctlplaneRun is a set-up ctl_churn deployment: the simulated fat tree,
// the in-process daemon serving on loopback, and the client's state.
type ctlplaneRun struct {
	in     ctlInputs
	net    *topology.Network
	sim    *netsim.Sim
	daemon *server.Daemon
	url    string // the tenant's subscriptions resource

	preloaded [][]int  // live preloaded filter ids by host
	added     []liveID // filters the churn subscribed, oldest first
	step      int      // requests issued so far
	tables    int      // entries summed over all switches after preload

	// The fabric wire loop: the frames to publish and the batch buffer
	// PublishBatch reads.
	feed
	pubs []netsim.Publication
	sink int64
}

// subscribeReply is the part of the daemon's response the client reads.
type subscribeReply struct {
	IDs     []int `json:"ids"`
	Applied bool  `json:"applied"`
}

// call sends one request and waits until the daemon reports the change
// applied on every affected switch.
func call(client *http.Client, tr *tracer, method, url string, body any) ([]int, error) {
	root := tr.begin("request", -1)
	defer tr.end(root)
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The handler answers only after the apply fan-out, so the round
	// trip contains the applied-wait.
	sp := tr.begin("http+applied-wait", root)
	resp, err := client.Do(req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sp = tr.begin("read-reply", root)
	defer tr.end(sp)
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body) // best effort: only decorates the error
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, msg.String())
	}
	var reply subscribeReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("%s %s: decode reply: %w", method, url, err)
	}
	if !reply.Applied {
		return nil, fmt.Errorf("%s %s: applied=false", method, url)
	}
	return reply.IDs, nil
}

// setupCtl deploys the empty network, starts the daemon and preloads
// the live set with one multi-filter request per host.
func setupCtl(cfg config, logName string) (*ctlplaneRun, error) {
	run := &ctlplaneRun{net: topology.MustFatTree(4)}
	hosts := len(run.net.Hosts)
	perHost := cfg.scaled(ctlPreloadPerHost)
	if perHost < 1 {
		perHost = 1
	}
	run.in = generateCtl(cfg.seed, hosts, perHost)
	var err error
	run.parse = itchParser
	if run.pool, err = itchFrames(cfg.seed, cfg.scaled(fabricFrames)); err != nil {
		return nil, err
	}
	run.pubs = make([]netsim.Publication, batchFrames)
	dep, err := controller.Deploy(run.net, formats.ITCH, make([][]subscription.Expr, hosts),
		controller.Options{Routing: ctlRouting})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if run.sim, err = netsim.New(dep); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	run.daemon, err = server.New(run.net, formats.ITCH,
		server.WithEventLog(filepath.Join(cfg.tmpDir, logName)),
		server.WithService(
			ctlplane.WithRouting(ctlRouting),
			ctlplane.WithInstallers(run.sim.Installers()...),
			ctlplane.WithSeed(cfg.seed)),
		server.WithTenancy(ctlplane.WithAutoCreate()))
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	addr, err := run.daemon.Start("127.0.0.1:0")
	if err != nil {
		run.close()
		return nil, fmt.Errorf("daemon start: %w", err)
	}
	run.url = fmt.Sprintf("http://%s/v1/tenants/%s/subscriptions", addr, ctlTenant)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	run.preloaded = make([][]int, hosts)
	for h, filters := range run.in.preload {
		ids, err := call(client, nil, http.MethodPost, run.url, map[string]any{"host": h, "filters": filters})
		if err != nil {
			run.close()
			return nil, fmt.Errorf("preload host %d: %w", h, err)
		}
		run.preloaded[h] = ids
	}
	for sw := range run.net.Switches {
		run.tables += run.daemon.Service().Program(sw).TotalEntries()
	}
	return run, nil
}

func (run *ctlplaneRun) close() {
	if run.daemon != nil {
		_ = run.daemon.Close() // the log lives in a scratch dir removed at exit
		run.daemon = nil
	}
}

// ctlEvent is one request: a subscribe when filter is set, otherwise
// the unsubscribe of victim.
type ctlEvent struct {
	host   int
	filter string
	victim liveID
}

// nextEvent advances the closed loop: subscribe and unsubscribe
// alternate. Until ctlLag of its own filters are live the client
// unsubscribes a preloaded one instead.
func (run *ctlplaneRun) nextEvent() ctlEvent {
	j := run.step / 2
	run.step++
	if run.step%2 == 1 {
		host, filter := run.in.subscribe(j)
		return ctlEvent{host: host, filter: filter}
	}
	if len(run.added) > ctlLag {
		v := run.added[0]
		run.added = run.added[1:]
		return ctlEvent{host: v.host, victim: v}
	}
	h := j % len(run.preloaded)
	ids := run.preloaded[h]
	run.preloaded[h] = ids[1:]
	return ctlEvent{host: h, victim: liveID{host: h, id: ids[0]}}
}

// churnResult is one timed churn phase.
type churnResult struct {
	latencies []time.Duration
	failed    int
	firstErr  error
	elapsed   time.Duration
	cpu       time.Duration
}

func (a *churnResult) merge(b churnResult) {
	a.latencies = append(a.latencies, b.latencies...)
	a.failed += b.failed
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

// churn runs the closed loop until dur has passed or, when dur is 0, for
// events requests: one client, each request waiting for applied before
// the next is sent. do performs one event and returns the new filter id
// of a subscribe.
//
// One client, not several: concurrent events coalesce into shared
// per-switch batches whenever they happen to overlap, so with two
// clients the work per update — and every metric — differed by 11–17 %
// between runs of one seed.
func (run *ctlplaneRun) churn(dur time.Duration, events int, do func(ev ctlEvent) (int, error)) churnResult {
	var res churnResult
	cpu0 := cpuTime()
	start := time.Now()
	for time.Since(start) < dur || len(res.latencies) < events {
		ev := run.nextEvent()
		t0 := time.Now()
		id, err := do(ev)
		res.latencies = append(res.latencies, time.Since(t0))
		switch {
		case err != nil:
			if res.failed++; res.firstErr == nil {
				res.firstErr = err
			}
		case ev.filter != "":
			run.added = append(run.added, liveID{host: ev.host, id: id})
		}
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	return res
}

// overHTTP is the tenant's view: JSON over loopback, through tenancy and
// the event log's group commit.
func (run *ctlplaneRun) overHTTP(tr *tracer) func(ctlEvent) (int, error) {
	client := &http.Client{}
	return func(ev ctlEvent) (int, error) {
		if ev.filter == "" {
			_, err := call(client, tr, http.MethodDelete, run.url,
				map[string]any{"host": ev.host, "ids": []int{ev.victim.id}})
			return 0, err
		}
		ids, err := call(client, tr, http.MethodPost, run.url,
			map[string]any{"host": ev.host, "filters": []string{ev.filter}})
		if err != nil {
			return 0, err
		}
		if len(ids) != 1 {
			return 0, fmt.Errorf("subscribe returned %d ids", len(ids))
		}
		return ids[0], nil
	}
}

// direct skips HTTP, tenancy and the log: parse, Service.Subscribe /
// Unsubscribe, wait on the event. It runs last, because the tenant
// registry no longer matches the service afterwards.
func (run *ctlplaneRun) direct(tr *tracer) func(ctlEvent) (int, error) {
	svc := run.daemon.Service()
	parser := subscription.NewParser(formats.ITCH)
	return func(ev ctlEvent) (int, error) {
		root := tr.begin("direct", -1)
		defer tr.end(root)
		var (
			e   *ctlplane.Event
			ids = []int{0}
			err error
		)
		sp := tr.begin("submit", root)
		if ev.filter == "" {
			e, err = svc.Unsubscribe(ev.host, []int{ev.victim.id})
		} else {
			var expr subscription.Expr
			if expr, err = parser.ParseFilter(ev.filter); err == nil {
				e, ids, err = svc.Subscribe(ev.host, []subscription.Expr{expr})
			}
		}
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("applied-wait", root)
		<-e.Done()
		tr.end(sp)
		return ids[0], e.Err()
	}
}

// fabricBatch is ctl_churn's batchFunc: decode the next frames, publish
// each from the next host through the simulated network, read every
// host delivery.
func (run *ctlplaneRun) fabricBatch(tr *tracer, parent int32) {
	sp := tr.begin("decode", parent)
	for i := range run.pubs {
		host := run.pos % len(run.net.Hosts)
		frame, msgs := run.decoded()
		run.pubs[i] = netsim.Publication{Host: host, Msgs: msgs, Bytes: len(frame)}
	}
	tr.end(sp)
	sp = tr.begin("process", parent)
	out := run.sim.PublishBatch(run.pubs)
	tr.end(sp)
	sp = tr.begin("consume", parent)
	var sum int64
	for _, ds := range out {
		for i := range ds {
			sum += int64(ds[i].Host) + int64(len(ds[i].Msgs))
		}
	}
	run.sink += sum
	tr.end(sp)
}

// runCtlLayers is the traced run's control-plane half: the closed loop
// over HTTP, the same event mix straight into the service, then one
// switch-level update replayed through the compile layers.
func runCtlLayers(run *ctlplaneRun, seconds float64, tr *tracer, res *results) (churnResult, error) {
	svc := run.daemon.Service()
	before := svc.Stats()
	all := run.churn(secs(seconds*0.5), 0, run.overHTTP(tr))
	svc.Quiesce()
	after := svc.Stats()

	// What the tenant sees. These were end-to-end metrics until their
	// run-to-run spread (10–28 % on a two-core shared host, whatever the
	// estimator) proved wider than any bound the benchmark may set.
	n := len(all.latencies)
	httpLat := durationsMS(all.latencies)
	res.set("server.updates_per_s", float64(n)/all.elapsed.Seconds(), n)
	res.set("server.cpu_ms_per_update", float64(all.cpu)/1e6/float64(n), n)
	res.set("server.sub_p50_ms", quantile(httpLat, 0.5), n)
	res.set("server.sub_p90_ms", quantile(httpLat, 0.9), n)

	if events := float64(after.Events - before.Events); events > 0 {
		per := func(name string, a, b int64) { res.set(name, float64(a-b)/events, int(events)) }
		per("ctlplane.batches_per_event", after.Batches, before.Batches)
		per("ctlplane.installs_per_event", after.Installs, before.Installs)
		per("ctlplane.deletes_per_event", after.Deletes, before.Deletes)
		per("ctlplane.keeps_per_event", after.Keeps, before.Keeps)
		per("ctlplane.retries_per_event", after.Retries, before.Retries)
		per("ctlplane.fallbacks_per_event", after.Fallbacks, before.Fallbacks)
	}
	res.set("ctlplane.peak_queue_depth", float64(after.PeakQueueDepth), 1)
	// The service's own histogram is cumulative, so it includes the
	// preload requests.
	res.set("ctlplane.svc_p50_ms", float64(after.Latency.P50)/1e6, after.Latency.N)
	res.set("ctlplane.svc_p99_ms", float64(after.Latency.P99)/1e6, after.Latency.N)

	dir := run.churn(secs(seconds*0.2), 0, run.direct(tr))
	all.merge(dir)
	directP50 := quantile(durationsMS(dir.latencies), 0.5)
	res.set("ctlplane.direct_p50_ms", directP50, len(dir.latencies))
	res.set("server.overhead_p50_ms", quantile(httpLat, 0.5)-directP50, n)

	// One-shot deployment of the preloaded set: the bulk compile beside
	// the incremental one.
	parser := subscription.NewParser(formats.ITCH)
	subs := make([][]subscription.Expr, len(run.in.preload))
	for h, filters := range run.in.preload {
		for _, f := range filters {
			expr, err := parser.ParseFilter(f)
			if err != nil {
				return all, err
			}
			subs[h] = append(subs[h], expr)
		}
	}
	sp := tr.begin("layer:controller.deploy", -1)
	t0 := time.Now()
	_, err := controller.Deploy(run.net, formats.ITCH, subs, controller.Options{Routing: ctlRouting})
	tr.end(sp)
	if err != nil {
		return all, fmt.Errorf("deploy preload set: %w", err)
	}
	res.set("controller.deploy_ms", float64(time.Since(t0))/1e6, 1)

	sp = tr.begin("layer:update-replay", -1)
	err = replayUpdate(run.net, run.in, subs, res)
	tr.end(sp)
	return all, err
}

// replayReps add-one/remove-one rounds give 2×replayReps samples per
// stage.
const replayReps = 20

// replayUpdate performs what one switch does for one event — add a
// rule, later remove it — on the rule list a core switch holds once the
// preload is placed (under TR every filter reaches the core), once stage
// by stage through the layers' public functions and once through
// compiler.Incremental, and reports each stage's median. The same rule
// list gives the full-compile and IR-size metrics.
//
// The staged pass compiles with DisableValidityGuards because guard
// injection is not exported; Incremental runs with the defaults the
// service uses. Both keep their engines warm, which the service does
// not: its drift fallback (ctlplane.fallbacks_per_event) rebuilds a
// switch from scratch at compiler.compile_ms a time.
func replayUpdate(net *topology.Network, in ctlInputs, subs [][]subscription.Expr, res *results) error {
	rec, err := ctlplane.NewReconcilerWith(net, formats.ITCH, ctlplane.WithRouting(ctlRouting))
	if err != nil {
		return err
	}
	bySwitch := make(map[int][]ctlplane.RuleOp)
	for h, exprs := range subs {
		for _, e := range exprs {
			_, ops, err := rec.AddFilter(h, e)
			if err != nil {
				return err
			}
			for _, op := range ops {
				bySwitch[op.Switch] = append(bySwitch[op.Switch], op)
			}
		}
	}
	core := net.LayerSwitches(topology.Core)[0].ID
	if _, err := rec.Compile(core, bySwitch[core]); err != nil {
		return err
	}
	rules := rec.Rules(core)
	ruleText := make([]string, len(rules))
	for i, rule := range rules {
		ruleText[i] = rule.String()
	}
	if err := compileMetrics(formats.ITCH, ruleText, rec.Program(core), res); err != nil {
		return err
	}
	sw, err := pipeline.NewSwitch("bench-core", nil, rec.Program(core))
	if err != nil {
		return err
	}
	us, n, err := installMedianUS(sw)
	if err != nil {
		return err
	}
	res.set("pipeline.install_us", us, n)

	opts := compiler.Options{DisableValidityGuards: true}
	engine := bdd.NewEngine(formats.ITCH, bdd.Options{})
	for _, rule := range rules {
		nrs, err := subscription.NormalizeRule(rule)
		if err != nil {
			return err
		}
		if err := engine.Add(nrs...); err != nil {
			return err
		}
	}
	prev, err := compiler.FromBDD(engine.Build(), opts)
	if err != nil {
		return err
	}
	inc, err := compiler.NewIncremental(formats.ITCH, compiler.Options{})
	if err != nil {
		return err
	}
	if _, err := inc.Add(rules...); err != nil {
		return err
	}

	var normalize, add, build, frombdd, diff, apply, applyAllocs []float64
	var reused, added int
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	// rebuild is the part add and remove share.
	rebuild := func() error {
		t0 := time.Now()
		d := engine.Build()
		build = append(build, ms(time.Since(t0)))
		t0 = time.Now()
		prog, err := compiler.FromBDD(d, opts)
		if err != nil {
			return err
		}
		frombdd = append(frombdd, ms(time.Since(t0)))
		t0 = time.Now()
		compiler.DiffPrograms(prev, prog)
		diff = append(diff, ms(time.Since(t0)))
		prev = prog
		return nil
	}
	applied := func(up *compiler.Update, err error, cost measured) error {
		if err != nil {
			return err
		}
		apply = append(apply, ms(cost.elapsed))
		applyAllocs = append(applyAllocs, float64(cost.allocs))
		reused += up.ReusedEntries
		added += up.AddedEntries
		return nil
	}
	parser := subscription.NewParser(formats.ITCH)
	for j := 0; len(add) < replayReps && j < 4*replayReps; j++ {
		// The rule the core switch would receive for the j-th subscribe
		// of the churn, if it is not already placed there.
		host, filter := in.subscribe(j)
		expr, err := parser.ParseFilter(filter)
		if err != nil {
			return err
		}
		id, ops, err := rec.AddFilter(host, expr)
		if err != nil {
			return err
		}
		if _, err := rec.RemoveFilter(host, id); err != nil {
			return err
		}
		var rule *subscription.Rule
		for _, op := range ops {
			if op.Switch == core && op.Add {
				rule = op.Rule
			}
		}
		if rule == nil {
			continue
		}

		t0 := time.Now()
		nrs, err := subscription.NormalizeRule(rule)
		if err != nil {
			return err
		}
		normalize = append(normalize, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		if err := engine.Add(nrs...); err != nil {
			return err
		}
		add = append(add, ms(time.Since(t0)))
		if err := rebuild(); err != nil {
			return err
		}
		engine.Remove(rule.ID)
		if err := rebuild(); err != nil {
			return err
		}

		var up *compiler.Update
		cost := measure(func() { up, err = inc.Add(rule) })
		if err := applied(up, err, cost); err != nil {
			return err
		}
		cost = measure(func() { up, err = inc.Remove(rule.ID) })
		if err := applied(up, err, cost); err != nil {
			return err
		}
	}
	if len(add) == 0 {
		return fmt.Errorf("update replay: no churn subscribe reached the core switch")
	}
	res.set("subscription.normalize_us", median(normalize), len(normalize))
	res.set("bdd.add_ms", median(add), len(add))
	res.set("bdd.build_ms", median(build), len(build))
	res.set("compiler.frombdd_ms", median(frombdd), len(frombdd))
	res.set("compiler.diff_ms", median(diff), len(diff))
	res.set("compiler.inc_apply_ms", median(apply), len(apply))
	res.set("compiler.inc_apply_allocs", median(applyAllocs), len(applyAllocs))
	res.set("compiler.reuse_ratio", float64(reused)/float64(reused+added), len(apply))
	return nil
}
