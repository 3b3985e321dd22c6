# Development targets. `make verify` is the repo's tier-1 check: build, vet,
# the full test suite, and the race detector over the packages whose hot path
# shares pooled state across goroutines (the dense scoring kernel under
# concurrent index swaps).

GO ?= go

.PHONY: verify build vet test race bench bench-check kernel-bench index-bench setup-bench slo-bench quality-bench http-bench fuzz-replay cross-build

verify: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/serving ./internal/obs/... ./internal/metrics ./internal/cluster ./internal/kvstore ./internal/loadgen ./client
	$(GO) test -run 'TestHTTPAllocBudgets' ./internal/serving

# All microbenchmarks, quick.
bench: slo-bench
	$(GO) test -bench=. -benchmem .

# Vet and unit-test the real-socket benchmark harness (benchmark/, a module
# of its own that imports serving names), so an API change that breaks it
# fails here rather than at benchmark time.
bench-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# Hot-path scoring kernel vs the retained map-based reference, including
# BenchmarkNeighborSessionsHot (candidate selection over 9 capped posting
# lists) and BenchmarkRecommendHot (the whole kernel over every prefix of
# those sessions at k = 100 and 500): the shape of the harness's
# hot-long-closed workload.
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRecommend|BenchmarkNeighborSessions' -benchmem ./internal/core

# Index build cost, the whole offline set-up and the load cost of the mmap
# zero-copy loader (EXPERIMENTS E13).
index-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadFile|BenchmarkBuild|BenchmarkSetupPath' -benchmem ./internal/index ./internal/core

# The benchmark harness's set-up in process: generate ecom-60m-sim, hold out
# the last day, renumber, build the capacity-1000 index.
setup-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSetupPath' -benchmem ./internal/index

# Burn-rate-vs-RPS trajectory from the load harness, committed as the
# versioned BENCH_slo.json artifact (the BENCHJSON line carries the rows).
slo-bench:
	$(GO) run ./cmd/serenade-loadtest -quick -slo-sweep -slo-latency-p99 5ms \
		-rates 200,400 -per-rate 2s | $(GO) run ./tools/benchjson > BENCH_slo.json
	@echo wrote BENCH_slo.json

# Online-vs-offline quality loop from the click-model harness, committed as
# the versioned BENCH_quality.json artifact (the BENCHJSON line carries the
# MRR table; experiments:TestQualityRunMatchesCommitted checks it).
quality-bench:
	$(GO) run ./cmd/serenade-loadtest -quick -seed 99 -click-model \
		-click-seed 17 -click-rounds 12 -click-skew 'b=0.7' \
		| $(GO) run ./tools/benchjson > BENCH_quality.json
	@echo wrote BENCH_quality.json

# Full-stack HTTP edge benchmarks (recommend POST/GET, idempotent
# replay) with allocation counts, committed as the versioned
# BENCH_http.json artifact — the zero-allocation edge's regression baseline.
http-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkHTTP' -benchmem \
		./internal/serving | $(GO) run ./tools/benchjson > BENCH_http.json
	@echo wrote BENCH_http.json

# Replay the fuzz seed corpora without fuzzing: the index loader's on-disk
# format, the fastjson scanner differential, the serving codec's
# schema-level differential against encoding/json, and the session store's
# WAL and snapshot recovery.
fuzz-replay:
	$(GO) test -run 'Fuzz' ./internal/index ./internal/fastjson ./internal/serving ./internal/kvstore

# Compile the fallback paths no linux/amd64 build reaches: the platform
# without mmap (the index loader's mmap_other.go, which reads the file into
# a heap arena, and kvstore's slab_other.go, which takes slabs from the
# heap) and a big-endian host (parseV2's copying section decoders).
cross-build:
	GOOS=windows $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/index
