# Developer entry points. `make check` is the tier-1 gate (gofmt,
# build, vet, staticcheck when installed, test, plus vet and the smoke
# test of the bench/ module, which `./...` never reaches because it is
# a module of its own);
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
# the SLO-driven autoscaling artifact. `make attrib`
# smoke-tests the latency attribution pipeline end to end on the
# Table 1 bursts. `make serve-smoke` boots the live observability
# server on a scale run and curls its endpoints — the CI smoke for the
# -serve plane.

GO ?= go

.PHONY: check fmt build vet bench-test staticcheck test race cover fuzz bench scale fleet autoscale attrib serve-smoke clean

check: fmt build vet bench-test staticcheck test

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# (demand-spec strings through Place with Validate as the oracle), and
# the attribution sweep (random interval sets against the quadratic
# oracle), the SLO-spec parser (accepted rules must be evaluable), and
# the live server's /api/series query parsing (every answer is 200, 400
# or 404 with a JSON body), and the in-place max–min allocator (bit for
# bit against the sort.Slice oracle); the checked-in corpora run as
# regular tests in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 10s ./internal/faas/htex
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/repart
	$(GO) test -run '^$$' -fuzz FuzzPlace -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzDecompose -fuzztime 10s ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz FuzzParseSLOSpec -fuzztime 10s ./internal/obs/analyze
	$(GO) test -run '^$$' -fuzz FuzzSeriesQuery -fuzztime 10s ./internal/obs/live
	$(GO) test -run '^$$' -fuzz FuzzMaxMinFair -fuzztime 10s ./internal/simgpu

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
# artifact twice — default vs sequential — and require the outputs
# byte-identical, with all three verdict lines present.
autoscale:
	@set -e; \
	$(GO) build -o /tmp/paperbench-autoscale ./cmd/paperbench; \
	/tmp/paperbench-autoscale autoscale -gpus 4 -horizon 40m > /tmp/autoscale.a.txt; \
	/tmp/paperbench-autoscale autoscale -gpus 4 -horizon 40m -parallel 1 > /tmp/autoscale.b.txt; \
	cmp /tmp/autoscale.a.txt /tmp/autoscale.b.txt; \
	grep -q 'virtual: verdict cost' /tmp/autoscale.a.txt; \
	grep -q 'virtual: verdict attainment' /tmp/autoscale.a.txt; \
	grep -q 'virtual: verdict cold-starts' /tmp/autoscale.a.txt; \
	echo "autoscale: ok (byte-identical across -parallel)"

# End-to-end smoke of the live observability plane: boot small
# paperbench scale, fleet, and autoscale runs and gpufaas autoscale and
# multiplex runs, each with -serve, poll /healthz until every run
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
	/tmp/gpufaas-smoke autoscale -gpus 4 -horizon 30m -serve 127.0.0.1:9193 >/dev/null 2>&1 & \
	gauto_pid=$$!; \
	/tmp/gpufaas-smoke multiplex -completions 8 -serve 127.0.0.1:9194 >/dev/null 2>&1 & \
	gmx_pid=$$!; \
	trap "kill $$scale_pid $$fleet_pid $$auto_pid $$gauto_pid $$gmx_pid 2>/dev/null || true" EXIT; \
	for port in 9190 9191 9192 9193 9194; do \
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
	curl -fsS http://127.0.0.1:9193/api/scopes | grep -q '"scope":"autoscale"'; \
	curl -fsS 'http://127.0.0.1:9193/spans?scope=autoscale' | grep -c '"name":"decide"' >/dev/null; \
	curl -fsS http://127.0.0.1:9194/api/scopes | grep -q '"scope":"multiplex/mps/p4"'; \
	curl -fsS 'http://127.0.0.1:9194/spans?scope=multiplex/mps/p4' | grep -c '"name":"task"' >/dev/null; \
	echo "serve-smoke: ok (metrics $$(wc -l < /tmp/serve-smoke.metrics) lines, spans $$(wc -l < /tmp/serve-smoke.spans) events; fleet+autoscale scopes, alerts, dashboard, promlint, gpufaas autoscale+multiplex scopes and tails ok)"

# End-to-end smoke test of the attribution pipeline: run the Table 1
# bursts instrumented, render the folded-stack artifact, and print the
# hottest stacks.
attrib:
	$(GO) run ./cmd/paperbench table1 -completions 8 -attrib ATTRIB_table1.json -flame FLAME_table1.folded > /dev/null
	@echo "wrote ATTRIB_table1.json and FLAME_table1.folded; hottest stacks:"
	@sort -t' ' -k2 -rn FLAME_table1.folded | head -5

clean:
	rm -rf ATTRIB_table1.json FLAME_table1.folded .bench_build
