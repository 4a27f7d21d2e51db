#!/bin/sh
# Tier-1+ gate: everything CI (and a reviewer) needs to trust a change.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
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
# The same churn with two goroutines walking keys down the index beside
# it: Prefetch takes no lock, so it gets as many runs.
go test -race -count=3 -run TestPrefetchConcurrentChurn ./internal/core/
# The directory's own: one writer publishing pages while lock-free readers
# Get, Seek and Range.
go test -race -count=3 -run TestConcurrentReadersBesideWriter ./internal/hashdir/
# The model checker's whole sweep under -race exceeds the default timeout
# (ROADMAP item C), so only its fixed value-shape histories run here: they
# put every pair of value shapes through every recovery mode, parallel
# scan and build included, in about 90 s.
go test -race -count=1 -run ModelCheckInline ./internal/modelcheck/

# Fuzz smokes, 10 s each: the ART's node layer against a sorted-map model
# (every published tree checked for not one changed bit), the crash
# checker over decoded byte-string histories, and the wire decoders over
# hostile lengths, counts and truncations.
go test -run='^$' -fuzz=FuzzARTDifferential -fuzztime=10s ./internal/art/
go test -run='^$' -fuzz=FuzzModelCheck -fuzztime=10s ./internal/modelcheck/
go test -run='^$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire/

# The directory's micro-benchmarks (shard creation, Get, Seek, bulk build) and
# the burst lookup (serial vs prefetched), one iteration each, so they keep
# compiling and running.
go test -run '^$' -bench . -benchtime 1x ./internal/hashdir/
go test -run '^$' -bench GetBurst -benchtime 1x ./internal/core/

# The benchmark is a nested module (benchmark/go.mod), so nothing above
# compiles it. Its smoke test runs every workload at toy scale against the
# product code as it stands: a change that stops the benchmark compiling,
# renames a counter it reads, or makes ops_failed non-zero fails here,
# before the pipeline runs the real thing.
(cd benchmark && go vet ./... && go test -count=1 ./...)
