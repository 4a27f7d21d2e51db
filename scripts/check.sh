#!/bin/sh
# Tier-1+ gate: everything CI (and a reviewer) needs to trust a change.
# Build + vet + the full test suite, then the race detector over the
# packages with lock-free/concurrent paths (core's optimistic reads,
# hashdir's COW snapshots, epalloc's atomic stats ranges, and art, whose
# published trees those reads walk: -race is also what turns checkptr on
# for the casts in art/node.go).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
# core's line is also where the value-shape tests ride: the hand-built torn
# images (TestDeadSlotWordIsNeverTrusted, TestTornShapeSwingReplays), the
# readers-versus-shape-cycling-writer test and the refusal of version-1 and
# version-2 images.
go test -race -count=1 ./internal/art/ ./internal/core/ ./internal/hashdir/ ./internal/epalloc/

# The ART's node layer against a sorted-map model: every step's tree
# checked for contents, order, range scans and shape, every tree published
# before it for not one changed bit.
go test -run='^$' -fuzz=FuzzARTDifferential -fuzztime=10s ./internal/art/

# Differential crash-consistency model checker: the deterministic quick
# suite (every persist boundary of fixed + seeded histories), then a short
# fuzz smoke over the byte-string history decoder.
go test -count=1 ./internal/modelcheck/
go test -run='^$' -fuzz=FuzzModelCheck -fuzztime=10s ./internal/modelcheck/
# The fixed value-shape histories once more under the race detector (about
# 90 s; the whole sweep under -race exceeds the default timeout).
go test -race -count=1 -run 'ModelCheckInline' ./internal/modelcheck/

# Write-path comparison harness, short and under the race detector: the
# striped-vs-legacy benchmarks drive Put/PutBatch from parallel workers
# over the striped allocator and micro-log pool, and the zero-alloc
# assertions pin the Get/Put allocation-free claims.
go test -race -count=1 -run 'WritePath' ./internal/bench/

# Recovery paths under the race detector: mode-equivalence (legacy vs
# pipelined vs lazy), crash-equivalence of recovery stats, lazy
# first-touch/drain races, Rebuild visibility, the parallel stripe
# iterators — plus the recovery benchmark harness at toy scale, which
# end-to-end opens the same image under every mode.
go test -race -count=1 -run 'Recovery|Rebuild|Lazy' ./internal/core/
go test -race -count=1 -run 'Iterate' ./internal/epalloc/
go test -race -count=1 -run 'RunRecoverySmoke' ./internal/bench/

# Durable file backend: the pmem file/mmap/atomic-write suites, the
# superblock geometry and clean-flag lifecycle, the public Open/Close
# round trip (including the separate-process survival test), the
# crash-image-through-a-file model-check sweep, and the restart
# benchmark harness at toy scale — all under the race detector.
# scripts/benchdiff.sh gates BENCH_restart.json like the other figures.
go test -race -count=1 -run 'File|WriteFileAtomic' ./internal/pmem/
go test -race -count=1 -run 'Open|CleanFlag|Close' ./internal/core/
go test -race -count=1 -run 'Open|Restore|Helper' .
go test -race -count=1 -run 'FileReattach' ./internal/modelcheck/
go test -race -count=1 -run 'RunRestartSmoke' ./internal/bench/

# Elastic directory: the split/merge boundary matrix (min/max depth,
# uneven siblings, slot exhaustion, the reopen matrix across every
# recovery mode) and concurrent split-vs-PutBatch/Scan churn under the
# race detector, then the crash-mid-split/mid-merge model-check sweeps
# (seeded histories plus the fixed split→merge trace, including crash
# during recovery of a half-split directory) and the skew benchmark
# harness at toy scale. scripts/benchdiff.sh gates BENCH_skew.json.
go test -race -count=1 -run 'Elastic|SplitsRoute|VariableDepth' ./internal/core/ ./internal/hashdir/
go test -count=1 -run 'ModelCheckElastic' ./internal/modelcheck/
go test -race -count=1 -run 'RunSkewSmoke' ./internal/bench/

# Observability: the obs package's lock-free counters, histograms and
# event ring under the race detector; the zero-alloc assertions pinning
# the disabled-metrics read path; Stats()/Metrics() hammered against
# concurrent writers; and the metrics-overhead benchmark harness at toy
# scale, which includes a live Prometheus scrape of the instrumented
# store. scripts/benchdiff.sh gates BENCH_obs.json.
go test -race -count=1 ./internal/obs/
go test -count=1 -run 'TestMetricsZeroAllocDisabledGet|TestWritePathZeroAlloc' ./internal/core/ ./internal/bench/
go test -race -count=1 -run 'TestMetrics|TestStatsMetricsRace' ./internal/core/
go test -race -count=1 -run 'RunObsSmoke|LiveSnapshot' ./internal/bench/

# Network service layer: the wire codec suite plus a short fuzz smoke
# over the frame/request/response decoders (hostile lengths, counts and
# truncations must error, never panic or over-allocate); the server's
# pipelining/coalescing/shutdown-drain suite; the client package
# end-to-end (including the 8-client durability battery and ScanAll
# paging); the daemon's process-level battery (SIGTERM clean flag,
# SIGKILL mid-traffic zero acked-write loss); hartkv's close-on-signal
# tests; and the wire soak harness at toy scale — all under the race
# detector. scripts/benchdiff.sh gates BENCH_wire.json.
go test -race -count=1 ./internal/wire/ ./internal/server/ ./client/
go test -run='^$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire/
go test -race -count=1 ./cmd/hartd/ ./cmd/hartkv/
go test -race -count=1 -run 'RunWireSmoke|ActiveCloser' ./internal/bench/

# The benchmark is a nested module (benchmark/go.mod), so nothing above
# compiles it. Its smoke test runs every workload at toy scale against the
# product code as it stands: a change that stops the benchmark compiling,
# renames a counter it reads, or makes ops_failed non-zero fails here,
# before the pipeline runs the real thing.
(cd benchmark && go vet ./... && go test -count=1 ./...)
