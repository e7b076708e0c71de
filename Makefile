GO ?= go
GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: build test race vet lint lint-fixtures lint-sarif audit-ignores bench bench-out bench-json bench-compare fuzz-smoke check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-specific analyzers (internal/analysis) run through the go
# command's vettool protocol, so package loading, export data, fact
# propagation and result caching all come from `go vet`. See
# DESIGN.md, "Static analysis" and "Interprocedural analysis".
# Suppress a finding with:
#   //lint:ignore <analyzer> reason
lint:
	$(GO) build -o bin/directload-vet ./cmd/directload-vet
	$(GO) vet -vettool=bin/directload-vet ./...

# The analyzers' own regression suite: every analyzer package runs its
# flagging and non-flagging fixtures under the analysistest harness,
# plus the facts engine's round-trip/staleness tests.
lint-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/directload-vet/

# Same findings as `make lint`, also written to directload-vet.sarif
# for code-scanning upload.
lint-sarif:
	$(GO) build -o bin/directload-vet ./cmd/directload-vet
	bin/directload-vet -sarif=directload-vet.sarif ./...

# Every //lint:ignore in the tree, with its mandatory reason; fails if
# any directive lacks one.
audit-ignores:
	$(GO) build -o bin/directload-vet ./cmd/directload-vet
	bin/directload-vet -audit-ignores

bench:
	$(GO) test -run xxx -bench . -benchtime 100x ./...

# The benchmark suites bench-json and bench-compare both run: the
# remote publish and backend-attribution paths, the fleet quorum /
# hedged-read paths, the core engine, the AOF appender and the RESP
# front door. Output accumulates in .bench.out for whichever consumer
# asked for it. Every suite runs -count 3 and benchjson keeps each
# benchmark's fastest repeat; iteration counts are sized so every
# measurement window spans tens of milliseconds — together the two
# make the figures noise floors the regression gate can diff, rather
# than single samples one scheduler hiccup can ruin.
bench-out:
	$(GO) test -run xxx -bench 'BenchmarkRemotePublish' -benchmem -benchtime 20x -count 3 ./internal/server/ > .bench.out
	$(GO) test -run xxx -bench 'BenchmarkPut20KBBackend|BenchmarkPut20KBAttributed' -benchmem -benchtime 1000x -count 3 ./internal/server/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkFleetQuorumWrite' -benchmem -benchtime 20x -count 3 ./internal/fleet/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkFleetHedgedRead' -benchmem -benchtime 2000x -count 3 ./internal/fleet/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkPut20KB$$|BenchmarkGet20KB|BenchmarkGetDedup|BenchmarkPut20KBInstrumented' -benchmem -benchtime 1000x -count 3 ./internal/core/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkDel' -benchmem -benchtime 20000x -count 3 ./internal/core/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkRecovery' -benchmem -benchtime 20x -count 3 ./internal/core/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkAOFAppendAligned' -benchmem -benchtime 5000x -count 3 ./internal/aof/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkRESPPipelined' -benchmem -benchtime 20000x -count 3 ./internal/resp/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkSearchTermQuery|BenchmarkSearchAndQuery' -benchmem -benchtime 2000x -count 3 ./internal/search/ >> .bench.out
	$(GO) test -run xxx -bench 'BenchmarkSearchQueryDuringPublish' -benchmem -benchtime 200x -count 3 ./internal/search/ >> .bench.out

# Machine-readable benchmark report: the remote publish path plus the
# core engine benchmarks, rendered to BENCH_directload.json by
# cmd/benchjson (name -> ops/s, ns/op, B/op, allocs/op). Each run also
# appends one {git_sha, ts, results} line to BENCH_history.jsonl so
# successive commits accumulate a regression series.
bench-json: bench-out
	$(GO) run ./cmd/benchjson -history BENCH_history.jsonl -sha $(GIT_SHA) < .bench.out > BENCH_directload.json
	rm -f .bench.out
	@echo wrote BENCH_directload.json

# Perf-regression gate: re-run the benchmark suites and diff them
# against the committed BENCH_directload.json baseline. Fails when any
# benchmark's ns/op regressed > 15% or its allocs/op > 10%; exempt a
# known-noisy or intentionally changed benchmark with
# BENCH_ALLOW='Put20KB,Recovery'.
bench-compare: bench-out
	$(GO) run ./cmd/benchjson -compare BENCH_directload.json -allow '$(BENCH_ALLOW)' < .bench.out
	rm -f .bench.out

# Short fuzz pass over every wire-protocol and AOF decoder target. The
# go tool accepts one -fuzz pattern per invocation, hence one line per
# target.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzRequest$$' -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzFrameV2$$' -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzBatchReply$$' -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/aof/
	$(GO) test -run xxx -fuzz '^FuzzRESPParse$$' -fuzztime 10s ./internal/resp/
	$(GO) test -run xxx -fuzz '^FuzzPostingsDecode$$' -fuzztime 10s ./internal/search/
	$(GO) test -run xxx -fuzz '^FuzzCIFFImport$$' -fuzztime 10s ./internal/search/

# Full pre-merge gate: compile, standard vet, the repo's own analyzer
# suite, unit tests, then the race detector over every package.
# benchjson is built (not run) as a smoke test so bench-json can't rot
# unnoticed.
check: build vet lint test
	$(GO) test -race ./...
	$(GO) build -o /dev/null ./cmd/benchjson

clean:
	$(GO) clean ./...
	rm -rf bin
