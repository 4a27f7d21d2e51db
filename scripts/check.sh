#!/bin/sh
# Tier-1+ gate: everything CI (and a reviewer) needs to trust a change.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
# internal/cpu's cache-line hint is assembly on amd64 and arm64 and a no-op
# elsewhere, picked by GOARCH alone: vet the arm64 assembly against its Go
# declaration, and build the fallback on an architecture with neither.
GOARCH=arm64 go vet ./...
GOARCH=riscv64 go build ./...
go test ./...

# The race detector over every package but the model checker: the
# lock-free reads (core's seqlock, hashdir's pages published by pointer,
# obs's striped counters), the striped allocator, the server's per-connection burst loop
# and the daemons' signal paths all have concurrent tests, and -race is
# also what turns checkptr on for the unsafe casts in art/node.go.
go test -race -count=1 $(go list ./... | grep -v /internal/modelcheck)
# Shard churn races shard creation and removal against every operation;
# its interleavings differ run to run, and the races it has caught before
# failed well under half the runs, so it gets three.
go test -race -count=3 -run TestShardConcurrentChurn ./internal/core/
# Writers whose shards share one allocator stripe delete and re-insert,
# so freed leaf and value slots change hands at once with their old word 0
# in place, beside readers that check each value against its key.
go test -race -count=3 -run TestImmediateSlotReuse ./internal/core/
# The same churn with two goroutines walking keys down the index beside
# it: Prefetch takes no lock, so it gets as many runs.
go test -race -count=3 -run TestPrefetchConcurrentChurn ./internal/core/
# PutBatch from six writers beside readers that check each value against
# its key: a group holds one seqlock section open across several records'
# commits.
go test -race -count=3 -run TestPutBatchConcurrentMultiShard ./internal/core/
# Eight goroutines share one client connection, single Gets beside
# Pipelines of 1-200 requests, each value checked against its key: the
# reader matches responses to pending entries of every size in FIFO order.
go test -race -count=3 -run TestSharedClientBursts ./client/
# Every Get, Put, Delete and PutBatch record of shard churn at kh = 1,
# shape cycling and overlapping PutBatch groups checked for a per-key
# linearization: the checks above see races and invariants, these see a
# stale or lost value built from atomics.
go test -race -count=3 -run Linearizable ./internal/core/
# Recovery's scan builds every stripe's shards on its own goroutine and
# files stray leaves after the walk: the modes compared, a Rebuild beside
# readers, leaves placed off their shard's stripe, and keys on both sides
# of the 14-byte leaf-class boundary (one walk per leaf class into the same
# builders), three times each. A lazy open's shards share their stripe's
# log, grouped by the first touch: first touches race on it beside each
# other, beside writers and beside the drain.
go test -race -count=3 -run 'TestRecoveryModeEquivalence|TestRebuildVisibility|TestRecoveryStrayLeaves|TestLeafClassBoundary|TestLazyRecovery' ./internal/core/
# The ART's own: one writer editing a tree in place, taking one node
# through every kind and back, beside lock-free Get and Prefetch readers.
go test -race -count=3 -run TestReadersBesideInPlaceWriter ./internal/art/
# The directory's own: one writer publishing pages while lock-free readers
# Get, Seek and Range.
go test -race -count=3 -run TestConcurrentReadersBesideWriter ./internal/hashdir/
# The allocator's chunk table: fresh reservations file chunks and publish
# table pages while lock-free ChunkOf and BitIsSet readers look them up.
go test -race -count=3 -run TestLookupBesideTableGrowth ./internal/epalloc/
# The model checker's whole sweep under -race exceeds the default timeout
# (ROADMAP item C), so only its fixed value-shape histories run here: they
# put every pair of value shapes through five configurations (serial,
# parallel, lazy and lazy-parallel recovery, and file reattach), in about
# 35 s on a 2-vCPU guest.
go test -race -count=1 -run ModelCheckInline ./internal/modelcheck/

# Fuzz smokes, 10 s each: the ART, edited in place and by copying,
# against a sorted-map model after every step (every copied tree checked
# for not one changed bit), the crash checker over decoded byte-string
# histories, the wire decoders over hostile lengths, counts and
# truncations, and Open's superblock checks over arbitrary label areas
# (only kh 1-3 with the {24, 40, 16} class table may pass).
go test -run='^$' -fuzz=FuzzARTDifferential -fuzztime=10s ./internal/art/
go test -run='^$' -fuzz=FuzzModelCheck -fuzztime=10s ./internal/modelcheck/
go test -run='^$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire/
go test -run='^$' -fuzz=FuzzSuperblock -fuzztime=10s ./internal/core/

# The directory's micro-benchmarks (shard creation, Get, Seek, bulk build),
# the allocator's (EPallocator against a per-object PM allocator, slot
# turnover), the burst lookup (serial, prefetched, and the prefetch walk
# alone), a lazy open of a file-backed store to its first read (in ns per
# live leaf) and the root range and recovery benchmarks (Figs. 10a and
# 10c's paths), one iteration each, so they keep compiling and running.
go test -run '^$' -bench . -benchtime 1x ./internal/hashdir/
go test -run '^$' -bench . -benchtime 1x ./internal/epalloc/
go test -run '^$' -bench GetBurst -benchtime 1x ./internal/core/
go test -run '^$' -bench LazyOpen -benchtime 1x ./internal/core/
go test -run '^$' -bench Fig10 -benchtime 1x .

# The benchmark is a nested module (benchmark/go.mod), so nothing above
# compiles it. Its smoke test runs every workload at toy scale against the
# product code as it stands: a change that stops the benchmark compiling,
# renames a counter it reads, or makes ops_failed non-zero fails here,
# before the pipeline runs the real thing.
(cd benchmark && go vet ./... && go test -count=1 ./...)
