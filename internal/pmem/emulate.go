package pmem

import (
	"github.com/casl-sdsu/hart/internal/cachesim"
	"github.com/casl-sdsu/hart/internal/latency"
)

// emulator is the arena's PM latency emulation, the one hook every load,
// store and persist passes through after it is counted: the cache model
// decides which loads stall, and the clock prices stalled loads and
// flushed lines. An arena configured with neither a latency mode nor a
// cache has a nil emulator, so its accesses never call into latency or
// cachesim.
type emulator struct {
	clock *latency.Clock
	cache *cachesim.Cache // nil: with a latency mode, every load misses
}

// newEmulator returns the hook cfg asks for, or nil for none.
func newEmulator(cfg Config) *emulator {
	if cfg.Latency.Mode == latency.ModeOff && cfg.Cache == nil {
		return nil
	}
	return &emulator{clock: latency.NewClock(cfg.Latency), cache: cfg.Cache}
}

// read charges one PM load: the PM read delta when it misses the cache.
func (e *emulator) read(p Ptr, size int) {
	if e.cache == nil || e.cache.Access(uint64(p), size) > 0 {
		e.clock.OnReadMiss()
	}
}

// write brings a stored range into the cache, as write-allocate hardware
// does.
func (e *emulator) write(p Ptr, size int) {
	if e.cache != nil {
		e.cache.Access(uint64(p), size)
	}
}

// persist charges the PM write delta per flushed line and evicts the lines
// from the cache (CLFLUSH semantics).
func (e *emulator) persist(p Ptr, size int) {
	first := int64(p) / lineSize
	last := (int64(p) + int64(size) - 1) / lineSize
	e.clock.OnPersist(int(last - first + 1))
	if e.cache != nil {
		e.cache.Flush(uint64(p), size)
	}
}
