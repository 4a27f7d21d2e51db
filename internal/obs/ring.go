package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// RingSize is the event ring's fixed capacity (power of two). Events are
// rare by design — opens, recovery phases, stripe steals — so a
// thousand slots hold minutes-to-hours of history; older events are
// overwritten in emission order.
const RingSize = 1024

// Event is one structured occurrence. Kind is a stable dotted name
// ("alloc.steal", "recover.phase", ...); Detail is free-form context (a
// phase label, say); A and B carry two kind-specific numeric
// payloads (counts, durations).
type Event struct {
	// Seq is the event's 1-based global emission number; gaps in a
	// snapshot mean older events were overwritten.
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail,omitempty"`
	A        uint64 `json:"a,omitempty"`
	B        uint64 `json:"b,omitempty"`
}

// EventRing is a fixed-size lock-free ring of Events. The zero value is
// ready to use. Emit allocates one Event (events are rare; the
// allocation buys torn-read freedom: slots hold immutable events behind
// atomic pointers, so readers and late overwriters never race on field
// writes). Emission order is the global Seq order; under concurrent
// emitters a slot briefly holds whichever of its contenders stored last,
// and Snapshot re-sorts by Seq.
type EventRing struct {
	seq   atomic.Uint64
	slots [RingSize]atomic.Pointer[Event]
}

// Emit appends an event to the ring, overwriting the oldest slot once
// the ring has wrapped.
func (r *EventRing) Emit(kind, detail string, a, b uint64) {
	e := &Event{
		Seq:      r.seq.Add(1),
		UnixNano: time.Now().UnixNano(),
		Kind:     kind,
		Detail:   detail,
		A:        a,
		B:        b,
	}
	r.slots[(e.Seq-1)&(RingSize-1)].Store(e)
}

// Snapshot returns the events currently held, oldest first.
func (r *EventRing) Snapshot() []Event {
	out := make([]Event, 0, RingSize)
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
