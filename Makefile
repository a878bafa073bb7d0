# Developer entry points. `make check` is the tier-1 gate (gofmt,
# build, vet, the reachability gate, staticcheck when installed, test,
# plus vet and the smoke test of the bench/ module, which `./...` never
# reaches because it is a module of its own);
# `make race` reruns the tests under the race detector — the parallel
# harness and the chaos suite must stay race-clean — and runs as its
# own CI job. `make cover` prints
# per-package statement coverage. `make bench` is the one measurement
# path: it runs the four bench/ workloads (scale, fleet, autoscale,
# paper-observed) on seed 1 and records each run's output, medians,
# quartiles, digest and JSON record, in the tracked
# BENCH_<workload>.txt.
# `make scale` runs the sharded million-task scenario at a modest size
# and checks it writes its streamed trace. `make fleet` runs the
# fleet-scale placement artifact at a modest size and checks it stays
# byte-identical across -parallel. `make autoscale` does the same for
# the SLO-driven autoscaling artifact and its -alerts history. `make attrib`
# smoke-tests the latency attribution pipeline end to end on the
# Table 1 bursts, rewriting the tracked ATTRIB_table1.json and
# FLAME_table1.folded (CI then requires them unchanged), and checks
# that an artifact with no runs of its own to export rejects -trace. `make serve-smoke` boots the live observability
# server on a scale run and curls its endpoints — the CI smoke for the
# -serve plane. `make chaos-smoke` runs the open-loop, Table 1,
# ablation, Fig 3, repartitioning and scale artifacts and the gpufaas
# multiplex scenario under a dense fault schedule, requires all seven
# to finish with every task ledger balanced, and requires coldstart to
# reject -chaos.
# `make examples` runs every examples/ program and requires each to
# exit 0 and print something. `make loc` counts the non-test Go lines
# of internal/ plus cmd/, per package and in total.

GO ?= go

.PHONY: check fmt build vet reach loc examples bench-test staticcheck test race cover fuzz bench scale fleet autoscale attrib serve-smoke chaos-smoke clean

check: fmt build vet reach bench-test staticcheck test

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing them, when some internal package is not a dependency
# of any cmd/ binary: a package only its own tests or an example use
# is dead weight no artifact measures.
reach:
	@deps=$$($(GO) list -deps ./cmd/... | grep '^repro/internal' | sort -u); \
	out=$$($(GO) list ./internal/... | sort -u | grep -vxF "$$deps" || true); \
	if [ -n "$$out" ]; then echo "internal packages no cmd/ binary reaches:"; echo "$$out"; exit 1; fi

# Prints the non-test Go lines of every package under internal/ and
# cmd/, then their total: the size figure simplicity changes report.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { p = $$2; sub(/\/[^\/]*$$/, "", p); n[p] += $$1; sum += $$1 } \
	END { for (p in n) printf "%6d %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%6d total\n", sum }'

# Runs each example to completion; each must exit 0 with non-empty
# stdout.
examples:
	@set -e; \
	for dir in examples/*/; do \
		out=$$($(GO) run ./$$dir); \
		test -n "$$out" || { echo "examples: $$dir printed nothing"; exit 1; }; \
		echo "examples: $$dir ok"; \
	done

# bench/ is a separate module (replace repro => ../), so `go build
# ./...` skips it; vetting it compiles the benchmark against the
# current exported API, and its smoke test checks the layer table and
# that BENCHMARK.json agrees with the emitted metrics.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# staticcheck is optional locally (no network installs in the dev
# container) but mandatory in CI, which installs it on the runner.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Runs every benchmark body once too, so the untracked
# micro-benchmarks cannot rot.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Short fuzz passes over the chaos-spec parser, the executor config
# validator, the repartitioning-spec parser, the fleet packer
# (demand-spec strings through Place with Validate as the oracle), the
# attribution sweep (random interval sets against the quadratic
# oracle), attribution as a whole (random collectors against the oracle
# over each task's full interval list), the SLO-spec parser (accepted
# rules must be evaluable), the live server's /api/series query parsing
# (every answer is 200, 400 or 404 with a JSON body), the in-place
# max–min allocator (bit for bit against the sort.Slice oracle), the
# alert engine's sliding windows (max, flips and rate bit for bit
# against rescans, avg against a math/big exact sum, over random
# append/scrape/bind sequences with ring wrap), and span attribute
# formatting (any int64 or float64 reads back through Span.Attr and
# renders in a Chrome trace exactly as strconv formats it), the Chrome
# trace's integer microseconds (any int64 against the float
# formatting) and unescaped-string fast path (any bytes against
# strconv.AppendQuote), and the hand-built attribution JSON (random
# strings and numbers against json.MarshalIndent), and devent's Queue
# (random Put, TryGet and cancellable Get programs against a plain-slice
# FIFO model, in value and virtual time); the checked-in corpora and
# seeds run as regular tests in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 10s ./internal/faas/htex
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/repart
	$(GO) test -run '^$$' -fuzz FuzzPlace -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzDecompose -fuzztime 10s ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz FuzzAttribute -fuzztime 10s ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz FuzzParseSLOSpec -fuzztime 10s ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz FuzzSeriesQuery -fuzztime 10s ./internal/obs/live
	$(GO) test -run '^$$' -fuzz FuzzMaxMinFair -fuzztime 10s ./internal/simgpu
	$(GO) test -run '^$$' -fuzz FuzzAlertWindows -fuzztime 10s ./internal/obs/tsdb
	$(GO) test -run '^$$' -fuzz FuzzAttrFormat -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzUsec -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzQuote -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzReportJSON -fuzztime 10s ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz FuzzQueue -fuzztime 10s ./internal/devent

# One seed-1 run of each bench/ workload (~25 s each), recorded
# verbatim under a one-line toolchain and core-count header.
bench:
	@set -e; \
	for w in scale fleet autoscale paper-observed; do \
		{ echo "# $$($(GO) version), nproc $$(nproc)"; bash bench/run.sh -workload $$w -seed 1; } > BENCH_$$w.txt; \
		tail -n 1 BENCH_$$w.txt; \
	done

# Modest-size run of the sharded open-loop scenario (the full
# 10^6-task run is `paperbench scale` with defaults) that fails unless
# the streamed -trace file is written and non-empty.
scale:
	@set -e; \
	rm -f /tmp/scale.json; \
	$(GO) run ./cmd/paperbench scale -tasks 50000 -shards 4 -trace /tmp/scale.json; \
	test -s /tmp/scale.json || { echo "scale: -trace wrote no /tmp/scale.json"; exit 1; }; \
	echo "scale: ok (trace $$(wc -c < /tmp/scale.json) bytes)"

# Modest-size fleet-placement smoke: render the artifact twice — once
# with defaults, once sequential — and require the outputs
# byte-identical (the artifact is purely virtual).
fleet:
	@set -e; \
	$(GO) build -o /tmp/paperbench-fleet ./cmd/paperbench; \
	/tmp/paperbench-fleet fleet -gpus80 16 -gpus40 16 -apps 24 -horizon 3m > /tmp/fleet.a.txt; \
	/tmp/paperbench-fleet fleet -gpus80 16 -gpus40 16 -apps 24 -horizon 3m -parallel 1 > /tmp/fleet.b.txt; \
	cmp /tmp/fleet.a.txt /tmp/fleet.b.txt; \
	grep -q 'virtual: rebalances=' /tmp/fleet.a.txt; \
	echo "fleet: ok (byte-identical across -parallel)"

# Modest-size autoscaling smoke: render the SLO-driven autoscaling
# artifact twice — default vs sequential — and require the outputs and
# the -alerts histories byte-identical, with all three verdict lines
# and a resolved slo-burn-page incident present.
autoscale:
	@set -e; \
	$(GO) build -o /tmp/paperbench-autoscale ./cmd/paperbench; \
	/tmp/paperbench-autoscale autoscale -gpus 4 -horizon 40m -alerts /tmp/autoscale.a.alerts > /tmp/autoscale.a.txt; \
	/tmp/paperbench-autoscale autoscale -gpus 4 -horizon 40m -parallel 1 -alerts /tmp/autoscale.b.alerts > /tmp/autoscale.b.txt; \
	cmp /tmp/autoscale.a.txt /tmp/autoscale.b.txt; \
	cmp /tmp/autoscale.a.alerts /tmp/autoscale.b.alerts; \
	grep -q 'slo-burn-page{app=infer} state=resolved' /tmp/autoscale.a.alerts; \
	grep -q 'virtual: verdict cost' /tmp/autoscale.a.txt; \
	grep -q 'virtual: verdict attainment' /tmp/autoscale.a.txt; \
	grep -q 'virtual: verdict cold-starts' /tmp/autoscale.a.txt; \
	echo "autoscale: ok (byte-identical across -parallel)"

# End-to-end smoke of the live observability plane: boot small
# paperbench scale, fleet, and autoscale runs and a gpufaas multiplex
# run, each with -serve, poll /healthz until every run
# reports done, then curl the endpoints — /metrics (the merged
# multi-scope exposition must pass promlint), /api/scopes, /api/alerts,
# /dashboard, /progress, and /spans. The servers linger after their
# runs by design; the trap kills them.
serve-smoke:
	@set -e; \
	$(GO) build -o /tmp/paperbench-smoke ./cmd/paperbench; \
	$(GO) build -o /tmp/gpufaas-smoke ./cmd/gpufaas; \
	$(GO) build -o /tmp/promlint-smoke ./cmd/promlint; \
	/tmp/paperbench-smoke scale -tasks 20000 -shards 2 -serve 127.0.0.1:9190 >/dev/null 2>&1 & \
	scale_pid=$$!; \
	/tmp/paperbench-smoke fleet -gpus80 8 -gpus40 8 -apps 16 -horizon 2m -serve 127.0.0.1:9191 >/dev/null 2>&1 & \
	fleet_pid=$$!; \
	/tmp/paperbench-smoke autoscale -gpus 4 -horizon 30m -serve 127.0.0.1:9192 >/dev/null 2>&1 & \
	auto_pid=$$!; \
	/tmp/gpufaas-smoke multiplex -completions 8 -serve 127.0.0.1:9194 >/dev/null 2>&1 & \
	gmx_pid=$$!; \
	trap "kill $$scale_pid $$fleet_pid $$auto_pid $$gmx_pid 2>/dev/null || true" EXIT; \
	for port in 9190 9191 9192 9194; do \
		ok=0; \
		for i in $$(seq 1 90); do \
			if curl -fsS http://127.0.0.1:$$port/healthz 2>/dev/null | grep -q '"phase":"done"'; then ok=1; break; fi; \
			sleep 1; \
		done; \
		test $$ok = 1 || { echo "serve-smoke: :$$port /healthz never reported done"; exit 1; }; \
	done; \
	curl -fsS http://127.0.0.1:9190/progress; echo; \
	curl -fsS http://127.0.0.1:9190/metrics > /tmp/serve-smoke.metrics; \
	grep -q '^# TYPE faas_tasks_completed_total counter' /tmp/serve-smoke.metrics; \
	curl -fsS 'http://127.0.0.1:9190/spans?scope=scale/shard0' > /tmp/serve-smoke.spans; \
	test -s /tmp/serve-smoke.spans; \
	for port in 9190 9191 9192; do \
		curl -fsS http://127.0.0.1:$$port/metrics | /tmp/promlint-smoke || { echo "serve-smoke: :$$port /metrics failed promlint"; exit 1; }; \
		curl -fsS http://127.0.0.1:$$port/dashboard | grep -q '/api/alerts' || { echo "serve-smoke: :$$port /dashboard missing"; exit 1; }; \
	done; \
	curl -fsS http://127.0.0.1:9191/api/scopes | grep -q '"scope":"fleet/load1.5x"'; \
	curl -fsS http://127.0.0.1:9191/api/alerts | grep -q '"name":"frag-ceiling"'; \
	curl -fsS http://127.0.0.1:9192/api/scopes | grep -q '"scope":"autoscale/static-1"'; \
	curl -fsS http://127.0.0.1:9192/api/alerts | grep -q '"name":"slo-burn-page"'; \
	curl -fsS 'http://127.0.0.1:9192/api/series?name=autoscale_blocks&fn=latest&scope=*' | grep -q '"results"'; \
	curl -fsS http://127.0.0.1:9192/api/scopes | grep -q '"scope":"autoscale/autoscaled"'; \
	curl -fsS 'http://127.0.0.1:9192/spans?scope=autoscale/autoscaled' | grep -c '"name":"decide"' >/dev/null; \
	curl -fsS http://127.0.0.1:9194/api/scopes | grep -q '"scope":"multiplex/mps/p4"'; \
	curl -fsS 'http://127.0.0.1:9194/spans?scope=multiplex/mps/p4' | grep -c '"name":"task"' >/dev/null; \
	echo "serve-smoke: ok (metrics $$(wc -l < /tmp/serve-smoke.metrics) lines, spans $$(wc -l < /tmp/serve-smoke.spans) events; fleet+autoscale scopes, alerts, dashboard, promlint, autoscale+multiplex scopes and tails ok)"

# Chaos smoke: the open-loop, Table 1, ablation (device probes mixed
# with platform runs), Fig 3 (the molecular-design campaign, which
# resubmits and counts lost tasks), repartitioning (phase-shifted
# tenants, whose worker pools the injector reaches too; seed 7 exhausts
# some completions' retries) and scale (two shards of CPU microtasks,
# each checking its own ledger; seed 2 retries tasks through the DFK's
# backoff loop) drivers and the gpufaas multiplex scenario must ride
# through a seeded schedule of worker kills, GPU context losses and
# submit failures (rate=0.5) and exit 0 — every run also fails on an
# unbalanced task ledger — and an artifact with no platform to inject
# into (coldstart) must reject -chaos with exit 2. The open-loop rows
# run sequentially and at the default -parallel, and must print the
# same bytes both times.
chaos-smoke:
	@set -e; \
	$(GO) build -o /tmp/paperbench-chaos ./cmd/paperbench; \
	$(GO) build -o /tmp/gpufaas-chaos ./cmd/gpufaas; \
	/tmp/paperbench-chaos openloop -chaos seed=1,rate=0.5 > /tmp/chaos-openloop.a.txt; \
	/tmp/paperbench-chaos openloop -chaos seed=1,rate=0.5 -parallel 1 > /tmp/chaos-openloop.b.txt; \
	cmp /tmp/chaos-openloop.a.txt /tmp/chaos-openloop.b.txt; \
	/tmp/paperbench-chaos table1 -chaos seed=1,rate=0.5 > /dev/null; \
	/tmp/paperbench-chaos ablations -chaos seed=1,rate=0.5 > /dev/null; \
	/tmp/paperbench-chaos fig3 -chaos seed=1,rate=0.5 > /dev/null; \
	/tmp/paperbench-chaos repart -chaos seed=7,rate=0.5 > /dev/null; \
	/tmp/paperbench-chaos scale -tasks 20000 -shards 2 -chaos seed=2,rate=0.5 > /dev/null; \
	/tmp/gpufaas-chaos multiplex -chaos seed=1,rate=0.5 -completions 32 > /dev/null; \
	rc=0; /tmp/paperbench-chaos coldstart -chaos seed=1 > /dev/null 2>&1 || rc=$$?; \
	test $$rc = 2 || { echo "chaos-smoke: coldstart -chaos exited $$rc, want 2"; exit 1; }; \
	echo "chaos-smoke: ok (openloop, byte-identical across -parallel, table1, ablations, fig3, repart, scale and gpufaas multiplex finished under chaos; coldstart rejects -chaos)"

# End-to-end smoke test of the attribution pipeline: run the Table 1
# bursts instrumented, render the folded-stack artifact, and print the
# hottest stacks. The exports must come from the bursts table1 printed
# (no fig45/ scope), an artifact that exports no runs of its own
# (fig1) must reject -trace with exit 2, and artifacts whose runners
# read no scenario flags must reject them too (fig4 -seed, fig1
# -tasks: exit 2).
attrib:
	@set -e; \
	$(GO) build -o /tmp/paperbench-attrib ./cmd/paperbench; \
	/tmp/paperbench-attrib table1 -attrib ATTRIB_table1.json -flame FLAME_table1.folded > /dev/null; \
	if grep -q '"fig45/' ATTRIB_table1.json; then echo "attrib: ATTRIB_table1.json names a fig45/ scope"; exit 1; fi; \
	rc=0; /tmp/paperbench-attrib fig1 -trace /tmp/x.json > /dev/null 2>&1 || rc=$$?; \
	test $$rc = 2 || { echo "attrib: fig1 -trace exited $$rc, want 2"; exit 1; }; \
	rc=0; /tmp/paperbench-attrib fig4 -seed 3 > /dev/null 2>&1 || rc=$$?; \
	test $$rc = 2 || { echo "attrib: fig4 -seed 3 exited $$rc, want 2"; exit 1; }; \
	rc=0; /tmp/paperbench-attrib fig1 -tasks 5 > /dev/null 2>&1 || rc=$$?; \
	test $$rc = 2 || { echo "attrib: fig1 -tasks 5 exited $$rc, want 2"; exit 1; }; \
	echo "wrote ATTRIB_table1.json and FLAME_table1.folded (table1/* scopes only; fig1 rejects -trace, fig4 -seed and fig1 -tasks are rejected); hottest stacks:"; \
	sort -t' ' -k2 -rn FLAME_table1.folded | head -5

clean:
	rm -rf .bench_build
