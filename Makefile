GO ?= go

.PHONY: build test race bench benchdiff bench-baseline fuzz-smoke cover lint gofmt loc perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

bench:
	$(GO) test -run '^$$' -bench 'ConstructScaling|ServeHTTP|PlannerPaths|SegmentedRebuild|RouterFanout|IngestSustained' -benchtime 100ms .

# Gate the benchmarks against the committed baseline (fails on >15%
# median regression; see scripts/benchdiff).
benchdiff:
	$(GO) run ./scripts/benchdiff

# Refresh BENCH_baseline.json after an intentional performance change.
# Run on the reference machine, then commit the updated baseline.
bench-baseline:
	$(GO) run ./scripts/benchdiff -update

# The single source of truth for the fuzz smoke list: CI's "Fuzz smoke"
# step runs `make fuzz-smoke` rather than repeating it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadSynopsis -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzEngineQuery -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzPlannerBudget -fuzztime 10s ./internal/plan
	$(GO) test -run '^$$' -fuzz FuzzIngestMaintain -fuzztime 10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz FuzzBatchWire -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzA0KernelMatchesClosure -fuzztime 10s ./internal/approx

# The single source of truth for the floor-gated package list: CI's
# coverage step runs `make cover` rather than repeating it.
cover:
	$(GO) test -short -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) run ./scripts/coverfloor -profile cover.out -floor 70 \
		rangeagg rangeagg/internal/serve rangeagg/internal/oracle rangeagg/internal/codec \
		rangeagg/internal/wal rangeagg/internal/obs rangeagg/internal/plan \
		rangeagg/internal/segment rangeagg/internal/cluster \
		rangeagg/internal/reopt rangeagg/internal/ingest \
		rangeagg/internal/engine rangeagg/internal/build \
		rangeagg/internal/parallel rangeagg/internal/dp rangeagg/internal/approx

lint: gofmt
	$(GO) vet ./...
	$(GO) run ./scripts/switchlint

# Fails, naming the files, when gofmt would reformat any Go file. CI's
# "Gofmt" step runs this target.
gofmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# Non-test Go lines outside perfbench: the size figure ROADMAP and
# CHANGES.md track.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l

# perfbench is its own Go module, so `go vet ./...` and `go test ./...`
# at the root never compile it. Vet and test it with run.sh's offline
# settings; its TestSmoke runs every workload for 1 s through the real
# handlers and checks every answer against ground truth.
perfbench-test:
	cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local && \
		$(GO) vet ./... && $(GO) test ./...
