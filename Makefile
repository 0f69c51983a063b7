# Tier-1 verification gate (documented in ROADMAP.md): every PR must
# leave `make check` green.
GO ?= go

.PHONY: check fmt vet lint build test race examples-smoke bench bench-report perf-guard fuzz-smoke fuzz-extended vet-report vet-report-check churn-soak serve-soak soak prove netcheck fit loc

## check: the full tier-1 gate — gofmt, vet, build, race-enabled tests
## (the custom analyzer runs once there, as internal/analysis's
## TestSuiteCleanOnRepo; `make lint` is their readable front-end), a
## short churn soak, a serve soak of the multi-tenant daemon, a short
## fuzz smoke, a translation-validation pass over the shipped rules, a
## network-wide delivery certification of the shipped rules, a static
## pipeline-fit certification of the shipped rules, a regeneration of
## vet-report.txt that must match the committed file, a run of every
## example program, and a smoke run of the parallel dataplane benchmark.
check: fmt vet build race churn-soak serve-soak fuzz-smoke prove netcheck fit vet-report-check examples-smoke bench

## prove: certify the shipped sample rules with the translation
## validator (camusc prove), in both last-hop and upstream modes, and
## the INT telemetry sample, whose program has two parts.
prove:
	$(GO) run ./cmd/camusc prove -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules
	$(GO) run ./cmd/camusc prove -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules -last-hop=false
	$(GO) run ./cmd/camusc prove -spec cmd/camusc/testdata/int.spec -rules cmd/camusc/testdata/int.rules

## netcheck: network-wide delivery certification (DESIGN.md §13) of
## the shipped rule sets — the itch.rules sample over a fat-tree(4)
## under both routing policies, over a random MST++ topology with α
## overshoot, the itchfeed example's subscriptions, and the itch.rules
## sample again with subsumption covering enabled on both topologies
## (DESIGN.md §14 — the covered tables must deliver identically to the
## full ones), and the INT telemetry sample, whose switch programs have
## two parts. Every run must certify clean: no black holes, no loops,
## exact delivery.
netcheck:
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules -policy mr -alpha 10
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules -topo mstpp -nodes 24 -alpha 100
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itchfeed.rules
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules -covering
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules -topo mstpp -nodes 24 -covering
	$(GO) run ./cmd/camusc netcheck -spec cmd/camusc/testdata/int.spec -rules cmd/camusc/testdata/int.rules

## fit: static pipeline-fit certification (DESIGN.md §15) of the
## shipped rule sets — every table must place within the modeled
## per-stage SRAM/TCAM/key-width budgets in one pipeline pass, with
## positive entry headroom; the INT telemetry sample places each of its
## two parts' tables. Exit 1 on any overflow finding.
fit:
	$(GO) run ./cmd/camusc fit -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules
	$(GO) run ./cmd/camusc fit -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itchfeed.rules
	$(GO) run ./cmd/camusc fit -spec cmd/camusc/testdata/int.spec -rules cmd/camusc/testdata/int.rules

## loc: non-test Go lines per package directory and in total, analyzer
## testdata excluded — the size figure ROADMAP quotes at every re-anchor.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './internal/analysis/testdata/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

## fmt: fail on any file gofmt would rewrite (analyzer testdata
## included: it is read by people too).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: the Camus-specific static analyzer (internal/analysis) over
## the whole module, test files included — the same run `race` makes
## through TestSuiteCleanOnRepo, printed one finding per line.
lint:
	$(GO) run ./cmd/camus-lint ./...

build:
	$(GO) build ./...

## examples-smoke: run every program under examples/ (output discarded);
## fails on the first example that exits non-zero.
examples-smoke:
	@for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "examples-smoke: $$d failed"; exit 1; }; \
	done

test:
	$(GO) test ./...

# -timeout 30m: internal/experiments compiles paper-scale workloads in
# every figure test; under the race detector on a single-core host the
# package runs close to the default 10m per-package limit.
race:
	$(GO) test -race -timeout 30m ./...

## bench: one-iteration smoke of the switch-batch, wire-decode,
## live-churn, daemon and network-verifier benchmarks (fast).
bench:
	$(GO) test -run '^$$' -bench='SwitchBatch|Decode|Churn|CtlplaneDaemon|Netcheck' -benchtime=1x .

## bench-report: regenerate bench-report.txt with steady-state numbers
## (host header from TestMain records NumCPU / GOMAXPROCS), then emit
## the machine-readable companions: BENCH_compile.json for the
## 10k-rule batch compile (Compile10k), BENCH_switch.json for the
## SwitchBatch run (ns/op, allocs/op, Mpps, host shape) and the
## DecodeITCH/DecodeINT wire-decode
## benchmarks (ns/msg, allocs and bytes per frame), and
## BENCH_ctlplane.json for the
## multi-tenant daemon (updates/s and client-observed p50/p99 request
## latency over the HTTP API) plus the covering-heavy churn run
## (routing-entry reduction ratio).
bench-report:
	$(GO) test -run '^$$' -bench='SwitchBatch|Decode|Churn|Compile10k|CtlplaneDaemon|Netcheck|Fitcheck' -benchmem . | tee bench-report.txt
	$(GO) run ./cmd/benchjson -filter 'Compile10k|^Churn$$|Netcheck|Fitcheck' -out BENCH_compile.json < bench-report.txt
	$(GO) run ./cmd/benchjson -filter 'SwitchBatch|Decode' -out BENCH_switch.json < bench-report.txt
	$(GO) run ./cmd/benchjson -filter 'CtlplaneDaemon|CoverChurn' -out BENCH_ctlplane.json < bench-report.txt

## perf-guard: the CI allocation guard — run the two canonical
## compiler benchmarks, the 1000-rule exact+range compile whose two rule
## shapes test different fields (CompileINT1k, 8.6k entries in two parts —
## as one diagram their merge is a cross product of 134k), the growth law of entries
## against rule count on disjoint-field Siena filters (CompileSiena: 1–3
## predicates × 100/200/400 ITCH filters under the canonical field order
## and under declaration order, each row's entries, reachable nodes and
## entries ÷ nodes and the fitted log-log slope recorded in the baseline's
## metrics; its own process — as one diagram the 2-predicate 400-filter
## rows peaked at 1–1.5 GB, in parts the whole sweep takes about a second), a warm add-one/remove-one on
## 192 and 10000 live rules (IncrementalChurn), one subscribe+unsubscribe
## through the control plane's placement registry with no compile
## (Placement: fat-tree(4), TR, 192 live filters — a place key that
## re-prints the expression per place is 4x the allocations), one 10k-rule
## batch compile (Compile10k),
## the network-delivery verifier, the static fit analyzer, and the
## covering-heavy churn benchmark once and fail
## on a >2x allocs/op regression against the checked-in baseline
## (perf-baseline.json), and on any compile row whose entries or nodes
## metric differs from it (a kernel change that moved structure;
## CompileINT1k also records engine-MB, what its engine retains). The compiled table walk (Lookup, both rule
## shapes) runs 100000 lookups over its message pool and is held to an
## exact zero-alloc baseline. The wire-decode benchmarks decode 1000
## frames each against an exact zero-alloc baseline too (messages and
## string bytes are carved from pooled chunks, whose refills round to 0
## per frame), so per-frame, per-message or per-field decode garbage
## cannot return unnoticed; the wire-encode benchmarks encode the same
## frames against 1 allocation per frame (the frame), so a value map or
## boxed field returning to an encoder fails. The fabric wire loop
## (FabricBatch: 256 frames decoded and published through the 20-switch
## netsim per op) self-enforces at most frames/8 allocs/op — the decode
## chunks' refills; PublishBatch reuses the Sim's Results — so an
## allocation per frame, hop or delivery cannot hide inside the 2x ratio. BenchmarkCoverChurn also self-enforces its ≥2×
## entry-reduction bar.
perf-guard:
	{ $(GO) test -run '^$$' -bench '^BenchmarkCompile500$$|^BenchmarkCompileINT1k$$|^BenchmarkIncrementalAddOne$$' -benchtime 1x -benchmem ./internal/compiler; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCompileSiena$$' -benchtime 1x -benchmem ./internal/compiler; \
	  $(GO) test -run '^$$' -bench '^BenchmarkIncrementalChurn$$' -benchtime 20x -benchmem ./internal/compiler; \
	  $(GO) test -run '^$$' -bench '^BenchmarkLookup$$' -benchtime 100000x -benchmem ./internal/compiler; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPlacement$$' -benchtime 2000x -benchmem ./internal/ctlplane; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCompile10k$$|^BenchmarkNetcheck$$|^BenchmarkCoverChurn$$|^BenchmarkFitcheck$$' -benchtime 1x -benchmem .; \
	  $(GO) test -run '^$$' -bench '^Benchmark(De|En)code(ITCH|INT)$$' -benchtime 1000x -benchmem .; \
	  $(GO) test -run '^$$' -bench '^BenchmarkFabricBatch$$' -benchtime 100x -benchmem .; } \
		| $(GO) run ./cmd/benchjson -baseline perf-baseline.json -max-ratio 2

## churn-soak: race-enabled soak of the live control plane — churn +
## concurrent traffic through the netsim switches, plus the covering
## variants: a covering-heavy churn run and the uncovering epoch-swap
## consistency check (~5s) — then ten race-enabled rounds of the
## switch's own concurrency tests: Install as a barrier under traffic,
## carried registers, re-entrant handlers, caller-owned Results and the
## batch fallback (~10s) — and ten race-enabled rounds of the control
## plane's service tests: churn against a batch deploy, covering,
## unchanged programs, backpressure, retry, apply-error and WAL
## recovery, validation, tenant fairness, submissions after Close, the
## one-cut Stats snapshot, and the tenancy layer's quota, rate,
## ownership, auto-create, Close and latency tests (~25s). The 1000-event
## net-validated covering twin (TestCoveringChurnNetValidated) runs in
## the full `race` target.
churn-soak:
	$(GO) test -race -count=1 -run 'TestChurnSoak|TestLiveChurn|TestHotSwapEpochConsistency|TestCoveringChurn$$|TestUncoverEpochConsistency' ./internal/netsim
	$(GO) test -race -count=10 -run 'Concurrent|Install|Carried|Reenters|Owners|Fallback' ./internal/pipeline
	$(GO) test -race -count=10 -run 'Service|Backpressure|Retry|Recovery|Reinstalled|Validat|Fairness|SubmitAfterClose|ConsistentCut|Tenant' ./internal/ctlplane

## serve-soak: both modes of the control-plane load driver
## (internal/workload/drive). First the end-to-end soak of the
## multi-tenant daemon: an in-process camusd with a durable event log,
## 1000 tenants of Zipf-skewed churn driven through the HTTP API by
## concurrent tenant-sharded workers, translation validation sampling
## every 16th batch. Then 300 events straight into the in-process
## service, followed by a feed replay on the converged network. Each
## fails on any refused event or HTTP error, apply failure, validation
## failure or unhealthy /healthz. Both run with -covering, so they also
## exercise subsumption covering and fail if no install was elided.
serve-soak:
	$(GO) run ./cmd/camus-sim -serve -tenants 1000 -churn 1000 -validate-every 16 -seed 7 -covering
	$(GO) run ./cmd/camus-sim -churn 300 -covering -packets 500

## soak: the longer churn soak (CAMUS_SOAK widens the event stream).
soak:
	CAMUS_SOAK=1 $(GO) test -race -count=1 -v -run 'TestChurnSoak' ./internal/netsim

# fuzz runs every fuzz target in the module for $(1) each, one
# `go test -fuzz` per target. The list is what `go test -list '^Fuzz'
# ./...` prints, so a new target is fuzzed without an edit here.
define fuzz
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	printf '%s\n' "$$list" \
		| awk '/^Fuzz/ { n[++k] = $$1 } /^ok/ { for (i = 1; i <= k; i++) print $$2, n[i]; k = 0 }' \
		| while read pkg target; do \
			echo "fuzz $$pkg $$target ($(1))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(1) || exit 1; \
		done
endef

## fuzz-smoke: short, deterministic iterations of every fuzz target —
## the parsers, the BDD kernel's hash table against a Go map, the
## compile-then-prove pipeline, the flat table walk against its
## reference, the switch's port-mask egress against the per-message
## Program.Eval reference, the field encoder against the bit reference
## and the two wire decoders (seed corpus plus a few hundred mutations
## each).
fuzz-smoke:
	$(call fuzz,200x)

## fuzz-extended: the nightly-CI fuzz budget — minutes, not mutations,
## over every fuzz target in the module (FuzzEgress: random port sets
## in [-1, 100], random ingress, streams across an Install).
fuzz-extended:
	$(call fuzz,80s)

## vet-report: regenerate VET_REPORT (vet-report.txt) by cross-running
## `camusc vet` (rule self-consistency), `camusc prove` (translation
## validation) and `camusc fit` (static pipeline-layout certification)
## over the rule-verifier corpus (findings are the point, so exit 1 is
## ok), with one camusc binary built for the whole report. A non-zero
## fit exit is written as the `exit status N` line the report has always
## carried there.
VET_REPORT ?= vet-report.txt
CORPUS = internal/analysis/rulecheck/testdata/corpus
vet-report:
	@bin=$$(mktemp -d) && trap 'rm -rf $$bin' EXIT && \
	$(GO) build -o $$bin/camusc ./cmd/camusc && c=$$bin/camusc && out=$(VET_REPORT) && rm -f $$out && \
	for f in $(CORPUS)/*.rules; do \
		echo "== camusc vet -spec market.spec -rules $$(basename $$f) ==" >> $$out; \
		$$c vet -spec $(CORPUS)/market.spec -rules $$f >> $$out || true; \
		echo "== camusc prove -spec market.spec -rules $$(basename $$f) ==" >> $$out; \
		$$c prove -spec $(CORPUS)/market.spec -rules $$f >> $$out || true; \
		echo "== camusc fit -spec market.spec -rules $$(basename $$f) ==" >> $$out; \
		$$c fit -spec $(CORPUS)/market.spec -rules $$f >> $$out 2>&1 || echo "exit status $$?" >> $$out; \
	done; \
	echo "== camusc vet -spec itch.spec -rules itch.rules ==" >> $$out; \
	$$c vet -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules >> $$out || true; \
	echo "== camusc prove -spec itch.spec -rules itch.rules ==" >> $$out; \
	$$c prove -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules >> $$out || true; \
	echo "== camusc netcheck -spec itch.spec -rules itch.rules ==" >> $$out; \
	$$c netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules >> $$out || true; \
	echo "== camusc netcheck -spec itch.spec -rules itch.rules -topo mstpp ==" >> $$out; \
	$$c netcheck -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules -topo mstpp -nodes 24 -alpha 100 >> $$out || true; \
	echo "== camusc fit -spec itch.spec -rules itch.rules ==" >> $$out; \
	$$c fit -spec cmd/camusc/testdata/itch.spec -rules cmd/camusc/testdata/itch.rules >> $$out || true
	@cat $(VET_REPORT)

## vet-report-check: regenerate the report into a temporary file and
## fail on any difference from the committed vet-report.txt, so a
## change that moves a finding, a proof or a fit certificate must
## re-record the report.
vet-report-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(MAKE) --no-print-directory vet-report VET_REPORT=$$tmp/vet-report.txt > /dev/null && \
	diff -u vet-report.txt $$tmp/vet-report.txt
