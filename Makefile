# Development targets. `make verify` is the repo's tier-1 check: build, vet,
# the full test suite, and the race detector over the packages whose hot path
# shares pooled state across goroutines (the dense scoring kernel under
# concurrent index swaps).

GO ?= go

.PHONY: verify build vet test race slo-race quality-race bench bench-check kernel-bench index-bench slo-bench quality-bench http-bench fuzz-replay cross-build

verify: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/serving ./internal/obs/... ./internal/metrics ./internal/cluster ./internal/kvstore ./client
	$(GO) test -run 'TestHTTPAllocBudgets' ./internal/serving

# The SLO engine and its feeders under the race detector: rolling-window
# accumulators, burn-rate trackers, tail retention, health snapshots.
slo-race:
	$(GO) test -race ./internal/obs/... ./internal/metrics ./internal/serving ./internal/cluster

# The online quality loop under the race detector: exposure recording,
# click attribution, windowed gauges, drift detection, and the click-model
# harness that drives them.
quality-race:
	$(GO) test -race ./internal/obs/... ./internal/serving ./internal/loadgen ./internal/cluster ./client

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
# BenchmarkNeighborSessionsHot: candidate selection over 9 capped posting
# lists, the shape of the harness's hot-long-closed workload.
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRecommend|BenchmarkNeighborSessions' -benchmem ./internal/core

# Index build cost and the load cost of the mmap zero-copy loader
# (EXPERIMENTS E13).
index-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkLoadFile|BenchmarkBuild' -benchmem ./internal/index ./internal/core

# Burn-rate-vs-RPS trajectory from the load harness, committed as the
# versioned BENCH_slo.json artifact (the BENCHJSON line carries the rows).
slo-bench:
	$(GO) run ./cmd/serenade-loadtest -quick -slo-sweep -slo-latency-p99 5ms \
		-rates 200,400 -per-rate 2s | $(GO) run ./tools/benchjson > BENCH_slo.json
	@echo wrote BENCH_slo.json

# Online-vs-offline quality loop from the click-model harness plus the
# quality record-path microbenchmarks, committed as the versioned
# BENCH_quality.json artifact (the BENCHJSON line carries the MRR table).
quality-bench:
	{ $(GO) run ./cmd/serenade-loadtest -quick -seed 99 -click-model \
		-click-seed 17 -click-rounds 12 -click-skew 'b=0.7'; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRecordExposure$$|BenchmarkAttribute' -benchmem ./internal/obs/quality; } \
		| $(GO) run ./tools/benchjson > BENCH_quality.json
	@echo wrote BENCH_quality.json

# Full-stack HTTP edge benchmarks (recommend POST/GET, cache hit, idempotent
# replay, track) with allocation counts, committed as the versioned
# BENCH_http.json artifact — the zero-allocation edge's regression baseline.
http-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkHTTP' -benchmem \
		./internal/serving | $(GO) run ./tools/benchjson > BENCH_http.json
	@echo wrote BENCH_http.json

# Replay the fuzz seed corpora without fuzzing: the index loader's on-disk
# format, the fastjson scanner differential, and the serving codec's
# schema-level differential against encoding/json.
fuzz-replay:
	$(GO) test -run 'Fuzz' ./internal/index ./internal/fastjson ./internal/serving

# Compile the index loader's fallback paths, which no linux/amd64 build
# reaches: the platform without mmap (mmap_other.go, which reads the file
# into a heap arena) and a big-endian host (parseV2's copying section
# decoders).
cross-build:
	GOOS=windows $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/index
