package epalloc

import "github.com/casl-sdsu/hart/internal/obs"

// Metrics is the allocator's always-on counter set (obs.Counter zero
// values, so no constructor is needed). Counts are per allocator, striped
// internally; call sites pass their allocation stripe to AddStripe so an
// increment lands on a stable cell. The embedding store folds these into
// its metrics snapshot under the "alloc." prefix.
type Metrics struct {
	// ChunkReuses counts chunk transfers satisfied from the stripe's own
	// free list; Steals counts cross-stripe free-list transfers (the
	// contention signal: a stripe ran dry while a sibling held spares);
	// FreshChunks counts fresh arena reservations (the growth signal).
	ChunkReuses obs.Counter
	Steals      obs.Counter
	FreshChunks obs.Counter
	// Recycles counts chunks pushed back onto a free list (Algorithm 6
	// completions, not the has-live-objects early exits).
	Recycles obs.Counter
	// ULogClaims counts lock-free micro-log slot claims.
	ULogClaims obs.Counter
}

// Metrics returns the allocator's counters.
func (a *Allocator) Metrics() *Metrics { return &a.metrics }

// SetEventRing directs the allocator's rare structured events (currently
// cross-stripe chunk steals) at the store's event ring. Nil (the
// default) drops them; counters are unaffected.
func (a *Allocator) SetEventRing(r *obs.EventRing) { a.events = r }
