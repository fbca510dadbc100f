GO ?= go

.PHONY: check vet build test strategy-guard plan-guard auto-guard join-guard observe-guard rewrite-guard core-guard cost-audit bench bench-smoke fmt fuzz-smoke fault-smoke obs-smoke server-smoke chaos-smoke

# check is the CI gate: static analysis, a full build, and the test suite
# under the race detector, plus the grep guards, each against something a
# refactor removed growing back.
check: vet build test strategy-guard plan-guard auto-guard join-guard observe-guard rewrite-guard core-guard

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# strategy-guard is the cheapest check that a second strategy-name map has
# not grown back beside internal/engine/strategy.go: outside bench/ and
# tests, the literal "optmagic" may occur in exactly one Go file.
strategy-guard:
	@files=$$(grep -rl --include='*.go' '"optmagic"' . | grep -v -e '^\./bench/' -e '_test\.go$$'); \
	if [ "$$files" != "./internal/engine/strategy.go" ]; then \
		echo "strategy names declared outside the strategy table:"; echo "$$files"; exit 1; \
	fi

# plan-guard is the cheapest check that a second select-box planner has not
# grown back beside buildSelectPlan (internal/exec/planorder.go): in
# non-test internal/exec, predicates are classified (the selPred literal)
# in exactly one place, nothing calls JoinOrder — evaluators and
# estimators read the memoized plan; JoinOrder is the rewrites' un-memoized
# entry — and only planorder.go asks findIndexPred or splitEqui how a
# quantifier binds or starts a walk (newState): every other reader loops
# over the plan's steps. The per-reader consumption helpers and the
# shared-nothing model's state-replaying entries stay deleted everywhere
# outside bench/. A correlated input meets the outer tuple stream only in
# correlatedMap: outside comments, subqMorsel (the nested-iteration morsel)
# is used only in batch_subquery.go and declared in scheduler.go.
plan-guard:
	@src=$$(ls internal/exec/*.go | grep -v '_test\.go$$'); \
	n=$$(cat $$src | grep -c '&selPred{'); \
	if [ "$$n" != 1 ]; then \
		echo "select-box predicates classified in $$n places, want 1:"; grep -n '&selPred{' $$src; exit 1; \
	fi; \
	if grep -n '\.JoinOrder(' $$src; then \
		echo "internal/exec re-derives a join order instead of reading the box's selectPlan"; exit 1; \
	fi; \
	rest=$$(echo "$$src" | grep -v '/planorder\.go$$'); \
	if grep -n -e 'findIndexPred(' -e 'splitEqui(' -e '\.newState(' $$rest; then \
		echo "a join step is decided outside planorder.go; read the plan's steps instead"; exit 1; \
	fi; \
	if grep -rnw --include='*.go' -e EstimateGrowth -e EquiJoinKeys -e stateAt -e takeLocal -e takeJoinable -e takeEquiJoin . | grep -v -e '^\./bench/' -e '_test\.go:'; then \
		echo "a second predicate-consumption walk grew back beside walkPlan"; exit 1; \
	fi; \
	if grep -nw subqMorsel $$src | grep -v -e ':[0-9]*:[[:space:]]*//' -e '^internal/exec/batch_subquery\.go:' -e '^internal/exec/scheduler\.go:[0-9]*:[[:space:]]*subqMorsel = '; then \
		echo "a second nested-iteration loop grew back beside correlatedMap; route the correlated input through it"; exit 1; \
	fi

# auto-guard is the cheapest check that Auto stays one costed race over
# strategy-table rows (engine.prepareAuto): the post-hoc NI -> NIBatch
# upgrade, its graph scan and the flat per-invocation overhead the race
# and exec/cost.go's boxStartup replaced must not come back.
auto-guard:
	@if grep -rn --include='*.go' -e 'autoBatchNI' -e 'hasBatchableCorrelation' -e 'correlatedEvalOverhead' . | grep -v '_test\.go:'; then \
		echo "Auto's plan choice has grown a second path beside the strategy-table race"; exit 1; \
	fi

# join-guard is the cheapest check that a join is still built in one place:
# in non-test Go outside bench/, only qgm.SplitEq unwraps an `=` predicate
# into its two sides (every "is this a join key" question is SplitEq plus
# the caller's side tests), only exec.rowHash passes the hash-build gate,
# and the build-key type it fills is declared once.
join-guard:
	@src=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); \
	files=$$(grep -l -e '!= qgm\.OpEq' -e '!= OpEq' $$src); \
	if [ "$$files" != "./internal/qgm/expr.go" ]; then \
		echo "an equality is decomposed outside qgm.SplitEq:"; grep -n -e '!= qgm\.OpEq' -e '!= OpEq' $$src; exit 1; \
	fi; \
	n=$$(cat $$src | grep 'hashBuildCheck(' | grep -vc '^func '); \
	if [ "$$n" != 1 ]; then \
		echo "hashBuildCheck has $$n callers, want 1 (exec.rowHash):"; grep -n 'hashBuildCheck(' $$src; exit 1; \
	fi; \
	n=$$(cat $$src | grep -c 'type buildKey'); \
	if [ "$$n" -gt 1 ]; then \
		echo "buildKey declared $$n times, want at most 1:"; grep -n 'type buildKey' $$src; exit 1; \
	fi

# observe-guard is the cheapest check that observing a run cannot change
# which path runs it: in non-test internal/exec, only profile.go (the box
# envelope's observe half) reads the profiler or the tracer, apart from
# exec.New pinning a traced run to one worker; a box evaluation is counted
# in one place (enterBox); and the CSE cache is one map.
observe-guard:
	@src=$$(ls internal/exec/*.go | grep -v '_test\.go$$'); \
	rest=$$(echo "$$src" | grep -v '/profile\.go$$'); \
	if grep -n 'ex\.profile' $$rest; then \
		echo "internal/exec reads the profiler outside profile.go"; exit 1; \
	fi; \
	n=$$(cat $$rest | grep -c 'opts\.Tracer'); \
	if [ "$$n" != 1 ] || ! grep -q '^	if opts\.Tracer != nil {$$' internal/exec/exec.go; then \
		echo "opts.Tracer read $$n times outside profile.go, want 1 (exec.New's w = 1 override):"; grep -n 'opts\.Tracer' $$rest; exit 1; \
	fi; \
	n=$$(cat $$src | grep -c 'bump(&ex\.Stats\.BoxEvals'); \
	if [ "$$n" != 1 ]; then \
		echo "BoxEvals counted in $$n places, want 1 (enterBox):"; grep -n 'bump(&ex\.Stats\.BoxEvals' $$src; exit 1; \
	fi; \
	if grep -n 'cseVecs' $$src; then \
		echo "a second CSE cache grew back beside ex.cse"; exit 1; \
	fi

# rewrite-guard is the cheapest check that the cleanup fixpoint does not
# print expressions to compare them: non-test internal/rewrite never calls
# FormatExpr. A rule reports a change it made, and predicates compare with
# qgm.EqualExpr, which unlike a printed name tells two same-named columns
# apart.
rewrite-guard:
	@if grep -n 'FormatExpr(' $$(ls internal/rewrite/*.go | grep -v '_test\.go$$'); then \
		echo "internal/rewrite prints expressions to compare them; report the change structurally or use qgm.EqualExpr"; exit 1; \
	fi

# core-guard is the cheapest check that magic decorrelation stays a rule
# under rewrite.Engine, which validates the graph after every firing: non-test
# internal/core calls qgm.Validate at most once (ApplyMagicSets, still a
# single pass), and in non-test core, rewrite and exec "how many quantifiers
# read this box" is qgm.RefCounts, not a hand-rolled count.
core-guard:
	@src=$$(ls internal/core/*.go | grep -v '_test\.go$$'); \
	n=$$(cat $$src | grep -c 'qgm\.Validate('); \
	if [ "$$n" -gt 1 ]; then \
		echo "internal/core calls qgm.Validate $$n times, want at most 1 (ApplyMagicSets); rewrite.Engine validates every feed firing:"; grep -n 'qgm\.Validate(' $$src; exit 1; \
	fi; \
	src=$$(ls internal/core/*.go internal/rewrite/*.go internal/exec/*.go | grep -v '_test\.go$$'); \
	if grep -nE 'refs\+\+|refCount\[[^]]*\]\+\+' $$src; then \
		echo "a hand-rolled reference count grew back; qgm.RefCounts(root)[b] is how many quantifiers read b"; exit 1; \
	fi

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
