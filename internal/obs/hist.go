package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the histogram resolution: power-of-two buckets covering
// the full uint64 range. Bucket 0 holds non-positive values; bucket b
// (b ≥ 1) holds values in [2^(b-1), 2^b - 1], with the last bucket open
// above. 64 buckets span sub-nanosecond to centuries, so one shape fits
// every latency the store measures.
const NumBuckets = 64

// Histogram is a lock-free log-bucketed latency histogram. The zero
// value is ready to use. Record is an atomic add per observation plus a
// CAS loop for the running max; buckets are not striped — histograms
// only record when the timing Gate is on, where a few nanoseconds of
// line contention are inside the accepted overhead budget.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// BucketOf returns the bucket index a value lands in.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket b; quantile
// extraction reports this bound, so every quantile is an upper estimate
// off by at most 2× (the bucket width).
func BucketUpper(b int) uint64 {
	switch {
	case b <= 0:
		return 0
	case b >= NumBuckets-1:
		return math.MaxUint64
	default:
		return 1<<uint(b) - 1
	}
}

// Record adds one observation (nanoseconds for the store's latency
// histograms, but the scale is the caller's).
func (h *Histogram) Record(v int64) {
	h.buckets[BucketOf(v)].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
	u := uint64(max(v, 0))
	for {
		old := h.max.Load()
		if u <= old || h.max.CompareAndSwap(old, u) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram's current state. The copy races with
// concurrent Records only benignly: each observation is either fully in
// or arrives in a later snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is a point-in-time histogram copy: plain values, mergeable
// across shards or instances by addition.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Quantile returns an upper estimate of the q-quantile (0 < q ≤ 1): the
// upper bound of the bucket in which the cumulative count crosses
// q·Count. The exact Max replaces the open last bucket's bound.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		cum += s.Buckets[b]
		if cum >= rank {
			if upper := BucketUpper(b); upper < s.Max || s.Max == 0 {
				return upper
			}
			return s.Max
		}
	}
	return s.Max
}

// Mean returns the average recorded value.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary renders the snapshot into the exposition form (count, mean and
// the standard percentile set).
func (s *HistSnapshot) Summary() HistVal {
	return HistVal{
		Count:  s.Count,
		MeanNs: s.Mean(),
		P50Ns:  s.Quantile(0.50),
		P95Ns:  s.Quantile(0.95),
		P99Ns:  s.Quantile(0.99),
		MaxNs:  s.Max,
	}
}
