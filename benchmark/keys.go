package main

import (
	"encoding/binary"
	"sync/atomic"

	"github.com/casl-sdsu/hart/internal/workload"
)

// keyset holds the workload's keys in one flat buffer with an offset table:
// no pointers, so the garbage-collection cost a run measures is the store's,
// not the generator's. Keys are workload.Random: 5-16 bytes over the paper's
// 62-character alphabet, distinct, reproducible from the seed.
type keyset struct {
	buf []byte
	off []uint32 // key i is buf[off[i]:off[i+1]]
}

func newKeyset(n int, seed int64) *keyset {
	raw := workload.Random(n, seed)
	ks := &keyset{off: make([]uint32, n+1)}
	total := 0
	for _, k := range raw {
		total += len(k)
	}
	ks.buf = make([]byte, 0, total)
	for i, k := range raw {
		ks.off[i] = uint32(len(ks.buf))
		ks.buf = append(ks.buf, k...)
	}
	ks.off[n] = uint32(len(ks.buf))
	return ks
}

func (ks *keyset) len() int { return len(ks.off) - 1 }

func (ks *keyset) key(i uint32) []byte { return ks.buf[ks.off[i]:ks.off[i+1]] }

// nearMiss writes key i with its last byte replaced by one outside the key
// alphabet into dst: certainly absent, and equal to a present key for as
// long as the index can tell without reading the full key from PM.
func (ks *keyset) nearMiss(i uint32, dst []byte) []byte {
	dst = append(dst[:0], ks.key(i)...)
	dst[len(dst)-1] = '~'
	return dst
}

// valueLen is the size of every value: key index and version, four bytes
// each, so any value read back says which key and which write it came from.
const valueLen = 8

func encodeValue(dst []byte, idx, ver uint32) []byte {
	dst = dst[:valueLen]
	binary.LittleEndian.PutUint32(dst[0:], idx)
	binary.LittleEndian.PutUint32(dst[4:], ver)
	return dst
}

func decodeValue(v []byte) (idx, ver uint32, ok bool) {
	if len(v) != valueLen {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(v[0:]), binary.LittleEndian.Uint32(v[4:]), true
}

// model is the single writer's view of what the store must hold: which keys
// of the pool are live and the last version written to each. It is the
// reference every read and every post-restart check is compared against.
//
// Live keys are perm[:nlive] and dead keys perm[nlive:], so drawing a
// uniform live or dead key and moving it across the boundary are O(1).
// The first pinned positions never move: a concurrent reader may draw from
// them while the writer inserts and deletes elsewhere.
type model struct {
	ks     *keyset
	ver    []atomic.Uint32
	perm   []uint32
	nlive  int
	pinned int
}

func newModel(ks *keyset) *model {
	m := &model{ks: ks, ver: make([]atomic.Uint32, ks.len()), perm: make([]uint32, ks.len())}
	for i := range m.perm {
		m.perm[i] = uint32(i)
	}
	return m
}

// pickLive draws a live key for a read or an update.
func (m *model) pickLive(r *rng) uint32 { return m.perm[r.intn(m.nlive)] }

// pickInsert draws a dead key and marks it live.
func (m *model) pickInsert(r *rng) uint32 {
	j := m.nlive + r.intn(len(m.perm)-m.nlive)
	m.perm[j], m.perm[m.nlive] = m.perm[m.nlive], m.perm[j]
	m.nlive++
	return m.perm[m.nlive-1]
}

// pickDelete draws an unpinned live key and marks it dead.
func (m *model) pickDelete(r *rng) uint32 {
	j := m.pinned + r.intn(m.nlive-m.pinned)
	m.perm[j], m.perm[m.nlive-1] = m.perm[m.nlive-1], m.perm[j]
	m.nlive--
	return m.perm[m.nlive]
}

// nextValue bumps key idx's version and encodes the value to write.
func (m *model) nextValue(idx uint32, dst []byte) []byte {
	return encodeValue(dst, idx, m.ver[idx].Add(1))
}

// valueOK reports whether v is exactly the last value written to key idx.
func (m *model) valueOK(idx uint32, v []byte) bool {
	gi, gv, ok := decodeValue(v)
	return ok && gi == idx && gv == m.ver[idx].Load()
}

// userBytes sums key and value bytes over the live records.
func (m *model) userBytes() int64 {
	var n int64
	for _, idx := range m.perm[:m.nlive] {
		n += int64(len(m.ks.key(idx))) + valueLen
	}
	return n
}
