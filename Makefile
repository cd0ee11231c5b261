# Convenience targets for the pyjama-go reproduction.

GO ?= go

.PHONY: all build test race vet sancheck chaos explore cover reach size allocs fuzz bench-mp bench-smoke benchmark-smoke report examples lint ci clean

all: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the repo's own static analysis suite (cmd/ompvet): EDT
# confinement, blocking-call, capture, wait-graph, and directive lint passes.
vet:
	$(GO) run ./cmd/ompvet ./...

# sancheck runs the whole suite under the runtime confinement sanitizer
# (internal/sanitize, build tag `ompsan`): every EDT delivery, worker
# dequeue, and reactor poll-path asserts goroutine affinity against its
# home context and panics with both stacks on violation. Combined with
# -race so a stamp miss and a data race surface in the same run.
sancheck:
	$(GO) test -race -tags=ompsan ./...

# chaos runs the fault-injection storm tests (tagged `chaos`) with a pinned
# seed so a failing schedule reproduces; override with CHAOS_SEED=<n>. The
# network-edge survivability drill (fd faults, slowloris, service after the
# storm, and the watchdog control for a poll-loop death) is internal/netloop's
# tagged suite.
CHAOS_SEED ?= 1337
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -tags=chaos ./...

# explore runs the deterministic schedule explorer (internal/sim): first
# the committed regression seed corpus (testdata/regression_seeds.json —
# pinned fixes must stay green, detector canaries must still fire), then
# every exploration test over a fresh batch of seeds. SIM_SEED_BASE shifts
# the fresh batch (a nightly job varies it to keep growing coverage);
# SIM_RECORD=1 makes failing seeds land in regression_seeds.candidates.json
# for triage and promotion into the corpus.
SIM_SEED_BASE ?= 1
explore:
	$(GO) test -count=1 -run 'TestReplayRegressionCorpus|TestCorpusReplayIsDeterministic' -v ./internal/sim/
	SIM_SEED_BASE=$(SIM_SEED_BASE) $(GO) test -count=1 ./internal/sim/

# lint mirrors the CI formatting/vet gates, plus ompvet (which CI runs as
# cmd/ompvet's TestRepositoryIsClean inside go test).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/ompvet ./...

# ci runs the make-shaped gates of the `test` job in .github/workflows/ci.yml
# (which adds the reactor -count=2 and GOMAXPROCS=1 sweeps, two
# cross-compiles and the bench smokes).
ci: build lint test race allocs size bench-smoke bench-mp

# cover enforces the coverage floor CI gates on: the seed baseline is
# ~84.8% over ./internal/..., the gate trips below COVER_MIN so genuine
# coverage regressions fail while normal churn doesn't.
COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor" >&2; exit 1; }

# reach measures what the runnable entry points execute, as opposed to what
# the tests do: every command, drill and example CI runs, and each benchmark
# workload for 2 s, built with -cover -coverpkg=repro/... and run the way CI
# runs them, their profiles merged in a temporary GOCOVERDIR. It prints the
# statement percentage reached per package, then gates on the functions no
# run reached (ROADMAP item 15: such code is deleted or justified): each must
# be listed in REACH_ALLOW, keyed "file function" under a "# reason:" line,
# or the target fails and names it. A listed function that some run now
# reaches is only reported, so a schedule-dependent path cannot fail it. The
# gate leaves out the benchmark's own package, whose sources go tool cover
# cannot resolve from this module.
REACH_WORKLOADS = edt_dispatch gui_kernels http_encrypt chat_echo
REACH_ALLOW = internal/integration/testdata/reach.allow
reach:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	bin="$$tmp/bin"; export GOCOVERDIR="$$tmp/cov"; mkdir -p "$$bin" "$$GOCOVERDIR"; \
	$(GO) build -cover -coverpkg=repro/... -o "$$bin/" ./cmd/... ./examples/...; \
	(cd benchmark && $(GO) build -cover -coverpkg=repro/... -o "$$bin/benchmark" .); \
	run() { echo "reach: $$*" >&2; "$$@" > /dev/null; }; \
	run "$$bin/httpbench" -workers 1,2 -users 2 -reqs 1 -kbytes 16 -no-omp-series; \
	run "$$bin/httpbench" -overload; \
	run env CHAOS_SEED=1337 "$$bin/httpbench" -chaos; \
	run "$$bin/chatbench" -conns 500 -rooms 16 -rounds 3; \
	run "$$bin/edtbench" -kernels crypt -approaches sequential,pyjama-async -rates 50 -events 3 -handler 2ms; \
	run "$$bin/edtbench" -kernels crypt -approaches sequential,pyjama-async -rates 50 -events 3 -handler 2ms -trace "$$tmp/trace.json"; \
	run "$$bin/edtbench" -figure1; \
	run "$$bin/report" -scale quick; \
	run "$$bin/quickstart"; \
	run "$$bin/imagepipeline"; \
	run "$$bin/encryptservice" -users 6 -reqs 2 -kbytes 16; \
	run "$$bin/guiapp" -events 15 -rate 60 -handler 5ms; \
	run "$$bin/netservice"; \
	run "$$bin/devicesim" -mb 4; \
	run "$$bin/annotated"; \
	run "$$bin/pjc" -vet internal/transform/testdata/*.go.in; \
	run "$$bin/ompvet" ./...; \
	for w in $(REACH_WORKLOADS); do \
		run "$$bin/benchmark" -workload $$w -seconds 2 -spans "$$tmp/spans"; \
	done; \
	$(GO) tool covdata percent -i="$$GOCOVERDIR"; \
	$(GO) tool covdata textfmt -i="$$GOCOVERDIR" -o "$$tmp/all.out"; \
	grep -v '^repro/benchmark/' "$$tmp/all.out" > "$$tmp/reach.out"; \
	$(GO) tool cover -func="$$tmp/reach.out" > "$$tmp/func.txt"; \
	awk -v allow=$(REACH_ALLOW) ' \
		BEGIN { while ((getline line < allow) > 0) if (line !~ /^#/ && split(line, f) == 2) listed[f[1] " " f[2]] = 1 } \
		$$NF == "0.0%" { sub(/:[0-9]+:$$/, "", $$1); k = $$1 " " $$2; if (k in unreached) next; unreached[k] = 1; n++; \
			if (!(k in listed)) { print "reach: " k " is reached by no run and not in " allow; bad++ } } \
		END { for (k in listed) if (!(k in unreached)) print "reach: " k " reached; drop it from reach.allow"; \
			printf "reach: %d functions reached by no run, %d of them not in %s\n", n, bad, allow; exit (bad > 0) }' "$$tmp/func.txt"

# size prints the five numbers the simplicity PRs track (CHANGES.md): non-test
# Go lines under internal/ and under cmd/, exported Set* setters — each one a
# knob that is mutable after construction — the exported surface under
# internal/ (top-level funcs, methods, types, vars and consts with an exported
# name), and flag definitions under cmd/, on the package-level flag set or a
# FlagSet named fs. Test files and testdata (analyzer corpora, golden inputs)
# are excluded from every count.
SIZE_SRC = ! -name '*_test.go' ! -path '*/testdata/*'
size:
	@echo "non-test Go lines under internal/: $$(find internal -name '*.go' $(SIZE_SRC) | xargs cat | wc -l)"
	@echo "Set* setters under internal/: $$(find internal -name '*.go' $(SIZE_SRC) | xargs grep -h "^func (.*) Set[A-Z][A-Za-z]*(\|^func Set[A-Z]" | wc -l)"
	@echo "exported identifiers under internal/: $$(find internal -name '*.go' $(SIZE_SRC) | xargs awk ' \
		FNR == 1 { blk = 0 } \
		/^(var|const|type) \($$/ { blk = 1; next } \
		blk && /^\)/ { blk = 0; next } \
		blk && /^\t[A-Z]/ { n++; next } \
		/^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^(type|var|const) [A-Z]/ { n++ } \
		END { print n + 0 }')"
	@echo "non-test Go lines under cmd/: $$(find cmd -name '*.go' $(SIZE_SRC) | xargs cat | wc -l)"
	@echo "flag definitions under cmd/: $$(find cmd -name '*.go' $(SIZE_SRC) | xargs cat | grep -c '\<\(flag\|fs\)\.\(String\|Int\|Bool\|Duration\|Float64\)(')"

# allocs runs the dispatch path's allocation budget (DESIGN.md §10): heap
# objects per Post, per Invoke in each scheduling mode (await from each kind of
# owner) and per Completion.Done, a parked join across garbage collections (the
# waiter free list must survive them), plus the sizes of executor.Completion
# and the pool's task node; and the encryption service's recycled payload
# (DESIGN.md §4): a Crypt Reset within its capacity and a request on a
# recycled payload allocate nothing, across collections too (the payload free
# list must survive them), and a Pyjama request's invocation only its task
# node; the OpenMP substrate (DESIGN.md §4): an empty region on a parked team
# allocates nothing, a warm Crypt RunPar only its body closure, and Critical on
# a name already seen nothing; and the message path: a Loop.Post costs its
# Completion across collections too (the loop's node free list must survive
# them) and a netloop line echoed over the reactor its line and its Completion
# — untagged and under the sanitizer, never under -race (the detector
# allocates on its own account, so the tests skip themselves there).
ALLOCS_RUN = 'TestAllocationBudget|TestWaiterFreeListSurvivesGC|TestNodeSizes|TestCryptResetMatchesNewCrypt|TestPayloadIsRecycled|TestParallelReusesParkedTeam|TestRunParReusesParkedTeam|TestCriticalAllocatesNothingForSeenName|TestReactorEchoRoundTripAllocs|TestLoopNodeFreeListSurvivesGC'
ALLOCS_PKGS = ./internal/core/ ./internal/executor/ ./internal/kernels/ ./internal/httpserver/ ./internal/omp/ ./internal/netloop/ ./internal/eventloop/
allocs:
	$(GO) test -count=1 -run $(ALLOCS_RUN) $(ALLOCS_PKGS)
	$(GO) test -count=1 -tags=ompsan -run $(ALLOCS_RUN) $(ALLOCS_PKGS)

# fuzz runs the directive-parser fuzzer and the IDEA differential fuzzer
# live, FUZZTIME each; the committed seed corpora under
# internal/{directive,kernels}/testdata/fuzz/ replay in every normal `go test`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/directive/
	$(GO) test -run='^$$' -fuzz=FuzzIdeaCipher -fuzztime=$(FUZZTIME) ./internal/kernels/

# bench-mp guards against the unbounded-backlog collapse: the three Post
# cases next to the pool they measure (internal/executor/post_bench_test.go),
# BENCHCOUNT runs each, and a failure when the minimum ns/op of Post_8P or
# Post_64P (filters noisy-neighbour interference) exceeds MP_RATIO times the
# median of Post_1P. The median, because Post_1P has two regimes and the gate
# wants the common one: a lone producer that every so often meets workers
# that never park pays no wakeup and reads half its usual cost (the benchmark
# caps its tasks in flight to make that rare, the median drops what is left).
# The pool is one queue behind one lock, so a flood of empty tasks from many
# producers costs more per Post than from one — about 2x at 8 producers and
# 2.3x at 64 on a 2-vCPU host (DESIGN.md §15) — and nothing in BENCHMARK.json
# produces such a flood; what the ratio still catches is a collapse of the
# order PR 3's pool showed without backpressure, 9.3x. One ratio everywhere
# (local, `make ci`, the workflow), both sides of it from the same run, so it
# holds on any hardware.
# Numbers, as opposed to this one gate, come from `bash benchmark/run.sh`.
BENCHCOUNT ?= 3
MP_RATIO ?= 3
bench-mp:
	@$(GO) test -run='^$$' -bench='^BenchmarkPost_[0-9]+P$$' -benchtime=0.3s -count=$(BENCHCOUNT) ./internal/executor | \
	awk -v max=$(MP_RATIO) ' \
		/^BenchmarkPost_/ { sub(/-[0-9]+$$/, "", $$1); ns = $$3 + 0; \
			if ($$1 == "BenchmarkPost_1P") { for (i = ++k; i > 1 && sorted[i-1] > ns; i--) sorted[i] = sorted[i-1]; sorted[i] = ns } \
			else if (!($$1 in min) || ns < min[$$1]) min[$$1] = ns } \
		END { if (!k) { print "bench-mp: no BenchmarkPost_1P result"; exit 1 } \
			one = sorted[int((k + 1) / 2)]; \
			for (n in min) { r = min[n] / one; verdict = ""; \
				if (r > max) { bad = 1; verdict = " FAILED: backlog collapse" } \
				printf "%s = %.2fx BenchmarkPost_1P (gate %.2fx)%s\n", n, r, max, verdict } \
			exit bad }'

# bench-smoke compiles and runs every benchmark once — the CI gate that
# keeps the suite from rotting without paying benchmark wall-clock.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# benchmark-smoke keeps the benchmark harness building: benchmark/ is a
# module of its own (replace repro => ../) that imports repro/internal/...,
# so the root `go build/vet/test ./...` never compile it. Vets and tests the
# harness, runs ompvet over it, then runs one short traced pass end to end.
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test . && $(GO) run repro/cmd/ompvet .
	bash benchmark/run.sh --workload edt_dispatch --seed 1 --seconds 3 --trace 1

# Regenerate the experimental report (quick scale; use SCALE=full for the
# paper-scale sweep).
SCALE ?= quick
report:
	$(GO) run ./cmd/report -scale $(SCALE) > report.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imagepipeline
	$(GO) run ./examples/encryptservice -users 6 -reqs 2 -kbytes 16
	$(GO) run ./examples/guiapp -events 15 -rate 60 -handler 5ms
	$(GO) run ./examples/netservice
	$(GO) run ./examples/devicesim -mb 4
	$(GO) run ./examples/annotated

clean:
	$(GO) clean -testcache
