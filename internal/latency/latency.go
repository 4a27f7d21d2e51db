// Package latency emulates the access-latency gap between DRAM and
// persistent memory (PM).
//
// The paper evaluates HART on DRAM that stands in for PM, adding the
// write-latency difference between PM and DRAM to every invocation of
// persistent() and adding the read-latency difference for every CPU stall
// caused by a PM load (Eq. 1-2 of the paper, following Quartz and PMEP).
// This package reproduces that methodology:
//
//   - OnPersist charges (PMWriteNs - DRAMWriteNs) per line flushed by a
//     persistent() call, like the paper's instrumented persistent().
//   - OnReadMiss charges (PMReadNs - DRAMReadNs) for a PM load that missed
//     the simulated last-level cache (see package cachesim); cache hits are
//     served at CPU speed and charge nothing, mirroring the stall-cycle
//     accounting of Eq. 1.
//
// A Clock counts only what emulation adds — misses and penalties. The
// events themselves (loads, persists, flushed lines) are counted once, by
// the PM arena that issues them (pmem.Arena.Stats).
//
// Two injection modes are provided. ModeSpin busy-waits for the charged
// duration so that wall-clock measurements (including multi-threaded ones)
// directly reflect PM latency. ModeAccount only accumulates the penalty in
// an atomic counter; harnesses then report wall time plus accounted penalty,
// which is the paper's own offline-adding method. ModeOff disables charging
// entirely (used by unit tests that only care about correctness).
package latency

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Mode selects how a Clock injects latency penalties.
type Mode int

const (
	// ModeOff disables latency injection and accounting entirely.
	ModeOff Mode = iota
	// ModeAccount accumulates penalties in counters without delaying the
	// caller. Use Clock.PenaltyNs to fold the penalty into measurements.
	ModeAccount
	// ModeSpin busy-waits for each penalty so wall-clock time includes it.
	ModeSpin
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAccount:
		return "account"
	case ModeSpin:
		return "spin"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes one emulated PM latency configuration.
//
// The paper's three configurations are 300/100, 300/300 and 600/300
// (PM write ns / PM read ns) with measured DRAM read latency of 100 ns and
// a nominal DRAM write latency of 15 ns (the PCM-vs-DRAM figures quoted in
// the paper's Section III.A.2).
type Config struct {
	// Mode selects injection behaviour for clocks built from this Config.
	Mode Mode
	// PMWriteNs is the emulated PM write latency in nanoseconds.
	PMWriteNs int64
	// PMReadNs is the emulated PM read latency in nanoseconds.
	PMReadNs int64
	// DRAMReadNs is the baseline DRAM read latency (paper: 100 ns).
	DRAMReadNs int64
	// DRAMWriteNs is the baseline DRAM write latency (paper: 15 ns).
	DRAMWriteNs int64
}

// Name returns the paper-style "write/read" label, e.g. "300/100".
func (c Config) Name() string {
	return fmt.Sprintf("%d/%d", c.PMWriteNs, c.PMReadNs)
}

// WriteDeltaNs is the penalty charged per persistent() invocation.
func (c Config) WriteDeltaNs() int64 {
	d := c.PMWriteNs - c.DRAMWriteNs
	if d < 0 {
		return 0
	}
	return d
}

// ReadDeltaNs is the penalty charged per stalled (cache-missing) PM load.
func (c Config) ReadDeltaNs() int64 {
	d := c.PMReadNs - c.DRAMReadNs
	if d < 0 {
		return 0
	}
	return d
}

// The paper's three latency configurations. Mode defaults to ModeAccount;
// callers override Mode as needed.

// Config300x100 is the paper's 300 ns write / 100 ns read configuration.
func Config300x100() Config {
	return Config{Mode: ModeAccount, PMWriteNs: 300, PMReadNs: 100, DRAMReadNs: 100, DRAMWriteNs: 15}
}

// Config300x300 is the paper's 300 ns write / 300 ns read configuration.
func Config300x300() Config {
	return Config{Mode: ModeAccount, PMWriteNs: 300, PMReadNs: 300, DRAMReadNs: 100, DRAMWriteNs: 15}
}

// Config600x300 is the paper's 600 ns write / 300 ns read configuration.
func Config600x300() Config {
	return Config{Mode: ModeAccount, PMWriteNs: 600, PMReadNs: 300, DRAMReadNs: 100, DRAMWriteNs: 15}
}

// PaperConfigs returns the three configurations in the order the paper's
// figures present them.
func PaperConfigs() []Config {
	return []Config{Config300x100(), Config300x300(), Config600x300()}
}

// Off returns a configuration with no latency injection, for tests.
func Off() Config { return Config{Mode: ModeOff} }

// Stats is a snapshot of a Clock's counters.
type Stats struct {
	// PMReadMisses counts PM loads that missed the simulated cache.
	PMReadMisses int64
	// WritePenaltyNs is the total charged write penalty.
	WritePenaltyNs int64
	// ReadPenaltyNs is the total charged read penalty.
	ReadPenaltyNs int64
}

// PenaltyNs is the total accounted penalty (read + write).
func (s Stats) PenaltyNs() int64 { return s.WritePenaltyNs + s.ReadPenaltyNs }

// Clock charges PM latency penalties. All methods are safe for concurrent
// use. The zero value is a valid clock with ModeOff semantics.
type Clock struct {
	cfg          Config
	pmReadMisses atomic.Int64
	writePenalty atomic.Int64
	readPenalty  atomic.Int64
}

// NewClock returns a Clock charging penalties per cfg.
func NewClock(cfg Config) *Clock {
	return &Clock{cfg: cfg}
}

// Config returns the clock's configuration.
func (c *Clock) Config() Config { return c.cfg }

// OnPersist charges one persistent() invocation covering the given number
// of cache lines. Each line is one CLFLUSH whose write reaches the PM
// media, so the write-latency delta applies per line — a 2 KB node build
// persisted in one call costs 32 line flushes, not one.
func (c *Clock) OnPersist(lines int) {
	if lines < 1 {
		lines = 1
	}
	if c.cfg.Mode == ModeOff {
		return
	}
	d := c.cfg.WriteDeltaNs() * int64(lines)
	if d == 0 {
		return
	}
	c.writePenalty.Add(d)
	if c.cfg.Mode == ModeSpin {
		spin(d)
	}
}

// OnReadMiss charges one PM load that missed the simulated last-level
// cache; hits are not reported, since they pay nothing.
func (c *Clock) OnReadMiss() {
	c.pmReadMisses.Add(1)
	if c.cfg.Mode == ModeOff {
		return
	}
	d := c.cfg.ReadDeltaNs()
	if d == 0 {
		return
	}
	c.readPenalty.Add(d)
	if c.cfg.Mode == ModeSpin {
		spin(d)
	}
}

// PenaltyNs returns the total accounted penalty in nanoseconds.
func (c *Clock) PenaltyNs() int64 {
	return c.writePenalty.Load() + c.readPenalty.Load()
}

// Snapshot returns the current counters.
func (c *Clock) Snapshot() Stats {
	return Stats{
		PMReadMisses:   c.pmReadMisses.Load(),
		WritePenaltyNs: c.writePenalty.Load(),
		ReadPenaltyNs:  c.readPenalty.Load(),
	}
}

// spin busy-waits for approximately ns nanoseconds. time.Sleep cannot hit
// sub-microsecond targets, so we poll the monotonic clock; the per-call
// overhead of time.Since (tens of ns) is small relative to the 185-585 ns
// penalties being injected.
func spin(ns int64) {
	d := time.Duration(ns)
	start := time.Now()
	for time.Since(start) < d {
	}
}
