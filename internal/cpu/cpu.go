// Package cpu holds the one processor hint the index's burst walks need:
// Prefetch, which asks the core to bring a cache line toward L1 and
// returns at once. It is PREFETCHT0 on amd64 and PRFM PLDL1KEEP on arm64,
// and does nothing on any other architecture; the GOARCH of the build is
// the only thing that picks among them.
//
// A hint is never an access. It cannot fault, whatever the address, it
// changes no memory, and the Go memory model does not see it: a goroutine
// may hint a line another goroutine is storing to without a data race.
// The caller still has to load the line to use it, through whatever
// synchronisation that load needs.
package cpu
