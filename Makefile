GO ?= go

.PHONY: check vet build test cost-audit bench bench-smoke fmt fuzz-smoke fault-smoke obs-smoke server-smoke chaos-smoke

# check is the CI gate: static analysis, a full build, and the test suite
# under the race detector. The suite includes internal/archtest, the table
# of design rules (one strategy table, one select plan, one hash build, the
# ledger of deleted helpers, gofmt) that fails when something a refactor
# removed grows back; plain go test ./... runs it too.
check: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# cost-audit prints the §7 cost model beside what execution did — per
# paper statement and raced strategy: estimated cost, estimated and actual
# row operations, box evaluations and invocations, and the measurements
# behind cost.go's constants — and fails when an estimate leaves its band
# (TestCostAudit). AUDIT_SF=1 reprints EXPERIMENTS.md's table; the bands
# are asserted at the default scale only.
AUDIT_SF ?= 0.1
cost-audit:
	$(GO) test -run 'TestCostAudit|TestAuto' -v -count=1 ./internal/engine -audit-sf $(AUDIT_SF)

# bench regenerates every paper figure as a Go benchmark (shortened).
bench:
	$(GO) test -short -bench=. -benchmem ./...

# bench-smoke runs every paper figure benchmark once (-benchtime=1x) at
# the -short scale and emits machine-readable results to BENCH_exec.json
# — a cheap CI check that the measurement path itself works, not a
# performance gate. The row-vs-columnar and batched-fan-out comparisons
# additionally run at full scale with enough iterations for stable ratios,
# so the JSON's speedup/op numbers reflect the real engine, not -short
# fixed overheads.
bench-smoke:
	( $(GO) test -run '^$$' -bench '^BenchmarkFigure[0-9]' -benchtime=1x -benchmem -short . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkFigureRowVsColumnar' -benchtime=20x -benchmem . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkFigureBatchedFanout' -benchtime=20x -benchmem . ) \
		| $(GO) run ./cmd/benchjson > BENCH_exec.json
	@echo "wrote BENCH_exec.json ($$(wc -c < BENCH_exec.json) bytes)"
	$(GO) test -run '^$$' -bench 'BenchmarkPlanCache' -benchtime=100x -short . \
		| $(GO) run ./cmd/benchjson > BENCH_plancache.json
	@echo "wrote BENCH_plancache.json ($$(wc -c < BENCH_plancache.json) bytes)"

# obs-smoke exercises the observability surface end to end: the metrics/
# pprof HTTP server comes up exactly as `decorr -metrics-addr` brings it
# up, /metrics is scraped once, and every sys.* table is SELECTed and
# asserted non-empty (TestObsSmoke). BenchmarkObservabilityOverhead then
# measures a fully observed engine against a bare one on the cached-plan
# hot path, enforces the <5% execution-overhead budget, and emits the
# numbers to BENCH_obs.json.
obs-smoke:
	$(GO) test -run TestObsSmoke -v ./cmd/decorr
	$(GO) test -run '^$$' -bench 'BenchmarkObservabilityOverhead' -benchtime=2000x . \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json
	@echo "wrote BENCH_obs.json ($$(wc -c < BENCH_obs.json) bytes)"

# server-smoke drives the served path end to end: it builds the real
# decorrd binary, starts it on a million-row dataset, streams the full
# result through the database/sql driver while polling the server's heap
# over a second connection, and kills a second query mid-stream expecting
# the typed ErrCanceled sentinel client-side (TestServerSmoke). Rows/sec
# and the peak heaps on both sides land in BENCH_server.json.
server-smoke:
	BENCH_SERVER_JSON=$(CURDIR)/BENCH_server.json $(GO) test -run TestServerSmoke -v -count=1 -timeout 300s ./cmd/decorrd
	@echo "wrote BENCH_server.json ($$(wc -c < BENCH_server.json) bytes)"

# chaos-smoke extends the fault-injection contract to the wire: a real
# decorrd subprocess runs with seeded faults at every protocol frame
# (torn writes, abandoned reads, latency) while concurrent database/sql
# clients hammer it and a SIGTERM drains it mid-run. Every client must
# end with correct rows (bag-compared against a fault-free run) or a
# cleanly classifiable typed error — no wrong answers, hangs, or
# crashes — and a million-row stream must survive a graceful drain to
# its last row (TestChaosSmoke). Outcome counts land in BENCH_chaos.json.
chaos-smoke:
	BENCH_CHAOS_JSON=$(CURDIR)/BENCH_chaos.json $(GO) test -run TestChaosSmoke -v -count=1 -timeout 300s ./cmd/decorrd
	@echo "wrote BENCH_chaos.json ($$(wc -c < BENCH_chaos.json) bytes)"

# fuzz-smoke runs the differential correctness harness deterministically:
# a fixed seed, 200 generated queries, every strategy and knob combination
# cross-checked against nested iteration. Exit 1 on any unallowlisted
# divergence (the output contains the shrunk reproducer to pin).
fuzz-smoke:
	$(GO) run ./cmd/decorr fuzz -seed 42 -n 200

# fault-smoke sweeps the same differential harness under seeded fault
# injection (errors, panics, and latency at storage scans, hash builds,
# and morsel claims). Every strategy × worker combination must either
# match the no-fault oracle or fail with a clean typed error; a wrong
# answer, hang, or crash exits 1.
fault-smoke:
	$(GO) run ./cmd/decorr fuzz -faults -seed 1 -n 15

fmt:
	gofmt -l -w .
