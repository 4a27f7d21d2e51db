package core

import (
	"bytes"
	"cmp"
	"slices"
	"time"

	"github.com/casl-sdsu/hart/internal/epalloc"
)

// Record is one key-value pair for batch operations.
type Record struct {
	// Key is 1..MaxKeyLen bytes.
	Key []byte
	// Value is 1..MaxValueLen bytes.
	Value []byte
}

// PutBatch inserts or updates many records. They are sorted by key and
// grouped by hash key; each group pays once for what Put pays per key —
// the directory lookup, the shard write lock and the seqlock section — and
// commits each of its records with Put's own protocol, so crash atomicity
// is per record: a crash exposes a sorted prefix of the batch, the same
// guarantee the per-key path gives.
//
// The first error aborts the remainder; the count of applied records is
// returned with it.
func (h *HART) PutBatch(records []Record) (int, error) {
	if h.obs.timing.Enabled() {
		start := time.Now()
		n, err := h.putBatchOp(records)
		h.obs.batchH.Record(time.Since(start).Nanoseconds())
		return n, err
	}
	return h.putBatchOp(records)
}

// putBatchOp is PutBatch's body behind the gated timing wrapper above.
func (h *HART) putBatchOp(records []Record) (int, error) {
	for _, r := range records {
		if err := h.validateWrite(r.Key, r.Value); err != nil {
			return 0, err
		}
	}
	sorted := sortRecords(records)

	done := 0
	var err error
	for i := 0; i < len(sorted) && err == nil; {
		// Extend the run of records sharing this hash key: sorted order
		// makes it contiguous, since a key shorter than kh is its own hash
		// key and sorts before every longer key it prefixes.
		hashKey, _ := h.splitKey(sorted[i].Key)
		j := i + 1
		for j < len(sorted) {
			if hk, _ := h.splitKey(sorted[j].Key); !bytes.Equal(hk, hashKey) {
				break
			}
			j++
		}
		s, _ := h.lockShardW(sorted[i].Key, true)
		s.beginWrite()
		var n int
		n, err = h.putGroup(s, hashKey, sorted[i:j])
		s.endWrite()
		s.ops.Add(uint64(n))
		s.mu.Unlock()
		done += n
		i = j
	}
	h.obs.putBatches.Add(1)
	h.obs.batchRecords.Add(uint64(done))
	return done, err
}

// sortRecords returns the records ordered by key and, among equal keys, by
// submission position, so duplicates apply in submission order and the
// batch nets out to the last submitted value, like sequential Puts. It
// sorts 4-byte positions and gathers the 48-byte records once.
func sortRecords(records []Record) []Record {
	pos := make([]int32, len(records))
	for i := range pos {
		pos[i] = int32(i)
	}
	slices.SortFunc(pos, func(a, b int32) int {
		if c := bytes.Compare(records[a].Key, records[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sorted := make([]Record, len(records))
	for i, p := range pos {
		sorted[i] = records[p]
	}
	return sorted
}

// putGroup applies one hash-key group of sorted records in order, each
// by Put's protocol, and returns how many it applied. Caller holds the
// shard write lock and an open seqlock section.
func (h *HART) putGroup(s *artShard, hashKey []byte, recs []Record) (int, error) {
	stripe := epalloc.StripeFor(hashKey)
	for i, r := range recs {
		if err := h.putLocked(s, r.Key[len(hashKey):], r.Key, r.Value, stripe); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}
