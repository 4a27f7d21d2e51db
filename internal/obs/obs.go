// Package obs is HART's always-compiled observability layer: lock-free
// striped counters and gauges for hot-path event counting, log-bucketed
// latency histograms for per-op timing, and a fixed-size ring buffer of
// structured events for rare occurrences (opens, recovery phase
// transitions, stripe steals).
//
// Design constraints, in order:
//
//  1. The disabled cost must vanish into noise. Counters are always on —
//     one striped atomic add per op — and everything that needs a clock
//     (histogram timing) hides behind a single Gate check, so the
//     disabled read path stays allocation-free and within noise of the
//     uninstrumented build (the benchmark's obs.timing_on_overhead_pct
//     prices the enabled one).
//  2. No coordination. Every instrument is a leaf of plain atomics:
//     no locks, no channels, no registration step. The zero value of
//     every type is ready to use, so packages below core (epalloc, pmem)
//     embed instruments directly in their structs without constructors
//     or import cycles.
//  3. Plain snapshots. Histograms and counters snapshot into plain
//     values, and Snapshot renders them to
//     JSON (hartd's Stats reply, the benchmark's ledger), Prometheus text
//     (WriteProm) and expvar.
//
// See DESIGN.md §14 for the architecture and the overhead methodology.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// stripeBits is log2 of NumStripes.
const stripeBits = 3

// NumStripes is the number of padded cells a Counter spreads its
// increments over. Power of two; sized for small-to-medium core counts —
// the goal is to break same-line ping-pong between concurrent writers,
// not to give every CPU a private cell.
const NumStripes = 1 << stripeBits

// cell is one padded counter stripe: the pad keeps adjacent stripes on
// distinct cache lines so concurrent increments don't false-share.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a lock-free striped event counter. The zero value is ready
// to use. Add is wait-free; Value sums the stripes and is approximate
// only in the sense that it races with concurrent adds (it never loses
// or double-counts a completed Add).
type Counter struct {
	cells [NumStripes]cell
}

// stripeHint derives a per-goroutine stripe from the address of a stack
// local, Fibonacci-hashed into the top stripeBits bits. Goroutine stacks
// are aligned to their size, so goroutines on one call path hold the
// local at the same offset from different bases: their addresses share
// every low bit and differ only high up, which the multiply carries into
// the stripe. A goroutine keeps its cell while its stack stays put, so a
// lone writer touches one line; the probe never escapes (no allocation).
// Callers that already know a better affinity (an allocator stripe, a
// shard hash, a PM page) should use AddStripe instead.
func stripeHint() int {
	var probe byte
	return int(uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15 >> (64 - stripeBits))
}

// Add increments the counter by n on the caller's stripeHint stripe.
func (c *Counter) Add(n uint64) {
	c.cells[stripeHint()].n.Add(n)
}

// AddStripe increments the counter by n on a caller-chosen stripe
// (reduced modulo NumStripes). Call sites that already carry a shard or
// allocator stripe get stable affinity this way.
func (c *Counter) AddStripe(stripe int, n uint64) {
	c.cells[stripe&(NumStripes-1)].n.Add(n)
}

// Value returns the counter's current total.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// SampleShift fixes the sampling ratio of the hot gated timing paths:
// with the Gate on, Get/Put and arena Persist/Sync clock one call in
// 2^SampleShift. A time.Now/Since pair costs ~100–150 ns on hosts with
// a slow clock read, which a sub-microsecond op cannot absorb on every
// call; at one in sixteen the amortised clock cost sits well inside the
// ~10% enabled-overhead budget while a steady workload still fills the
// histograms within a few hundred ops. Rare or long operations
// (Delete, Scan, PutBatch, recovery) are timed unsampled — for them the
// clock pair is already in the noise.
const SampleShift = 4

// Sampler decides which calls on a gated timing path actually read the
// clock: a striped wait-free call counter, hit on every 2^SampleShift-th
// call per stripe (the first call of each stripe hits, so a freshly
// enabled gate shows a histogram after one op). The zero value is ready
// to use.
type Sampler struct {
	cells [NumStripes]cell
}

// Hit reports whether this call should be timed.
func (s *Sampler) Hit() bool {
	return (s.cells[stripeHint()].n.Add(1)-1)&(1<<SampleShift-1) == 0
}

// Gate is the single atomic flag that turns clock-touching
// instrumentation (histogram timing) on. Counters ignore it — they are
// cheap enough to always run. The zero value is off.
type Gate struct {
	on atomic.Bool
}

// Enabled reports whether timed instrumentation is on. This is the one
// check a hot path performs before reaching for the clock.
func (g *Gate) Enabled() bool { return g.on.Load() }

// Set turns timed instrumentation on or off.
func (g *Gate) Set(on bool) { g.on.Store(on) }
