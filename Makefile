# Tier-1 gate: everything `make check` runs must stay green.  CI and
# pre-merge checks use this target; see ROADMAP.md.
.PHONY: check build vet test bench-test bench-smoke race fuzz-smoke chaos prof loc

check: build vet test bench-test race fuzz-smoke bench-smoke

build:
	go build ./...

# gofmt over every tracked Go file, the bench module's included.  bench/ is
# its own module, so root `go vet ./...` skips it; it compiles against the
# pinned internal types from outside (kir.Kernel carries an atomic, so a
# by-value copy there is a copylocks error only its own vet reports).
vet:
	go vet ./...
	cd bench && go vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# -timeout 120s: a reintroduced collective deadlock must fail CI with a
# goroutine dump instead of wedging it.
test:
	go test -timeout 120s ./...

# bench/ is its own module (cucc/bench), so root `go test ./...` skips it.
bench-test:
	cd bench && go test -timeout 120s ./...

# The repository benchmark as the driver runs it, briefly (about a minute):
# bench/ compiles against cucc/internal/... from outside the root module, so
# only building and running it shows that an API it uses still has the shape
# it expects.  Every workload untraced, and traced for the two workloads the
# driver traces; each run must exit 0, correct, with no failed op.  Then
# nothing under bench/ or BENCHMARK.json may differ from HEAD: a change that
# claims a gain does not edit what measures it.
bench-smoke:
	@for run in "serve-small 0" "source-ir 0" "gather 0" "paper-sim 0" "gather 1" "paper-sim 1"; do \
		set -- $$run; \
		echo "bench-smoke: $$1 --trace $$2"; \
		out=$$(bash bench/run.sh --workload $$1 --seed 1 --seconds 2 --trace $$2) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -1 | grep -q '"correct":true,"attempted":[0-9]*,"failed":0,' || { echo "$$out"; exit 1; }; \
	done
	git diff --quiet HEAD -- bench BENCHMARK.json

# internal/suites takes 80+ s whole under the race detector, so the gate runs
# the two tests of what this package shares between goroutines: the data set
# concurrent Builds copy from, and the natives over node memory.
race:
	go test -race -timeout 120s ./internal/interp/ ./internal/vm/ ./internal/core/ ./internal/pgas/ ./internal/cluster/ ./internal/comm/ ./internal/csched/ ./internal/transport/ ./internal/metrics/ ./internal/trace/ ./internal/prof/ ./internal/recovery/ ./internal/serve/ ./internal/throughput/ ./internal/obs/
	go test -race -timeout 120s -run 'TestBuildMatchesFreshGeneration|TestInterpMatchesNative' ./internal/suites/

# Ten seconds of the one fuzz target: mutated mini-CUDA source compiled for
# the register machine and run against the interpreter (memory, Work, error),
# starting from the value-class shapes in internal/vm/testdata/fuzz.  A
# failing input is written there too; `go test ./internal/vm` re-runs it.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzCompileMatchesInterp -fuzztime=10s ./internal/vm/

# Fault-injection suite under the race detector: seeded transport faults
# (benign, lossy, and the deterministic rank kill) across the cluster chaos
# tests, the elastic-recovery tests, and the serving-layer chaos tests.
# Seeds are fixed in the test code, so this is deterministic per build.
chaos:
	go test -race -timeout 300s -run 'Chaos' ./internal/suites/ ./internal/serve/

# Non-test Go lines per package directory and the root total: every .go
# file not ending in _test.go, outside bench/ (its own module).  The LOC
# figures a change reports before and after come from this.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; sum += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", sum }'

# Run-and-diagnose the evaluation suite: critical path, stragglers, and
# what-if estimates per program, plus the VM opcode profile of one kernel.
prof:
	go run ./cmd/cuccprof -suite -nodes 4
	go run ./cmd/cuccprof -prog FIR -nodes 4 -vmprofile
