package main

import (
	"sort"
	"time"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/hashdir"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/pmem"
	"github.com/casl-sdsu/hart/internal/wire"
)

// mirror is a stand-alone copy of the store's layers, built from the
// workload's own keys through the layers' exported functions: a hash
// directory over the first two key bytes, one ART per directory entry, and
// a scratch PM arena with an EPallocator holding one 40-byte leaf and one
// 8-byte value per key, under the same latency configuration and cache
// model as the store. The per-layer kernels and the child spans of the
// traced pass run on it, so a layer's cost is measured by calling that layer
// and nothing else. Product code is not touched.
type mirror struct {
	ks     *keyset
	tab    *hashdir.Table[*art.Tree]
	arena  *pmem.Arena
	alloc  *epalloc.Allocator
	leaves []pmem.Ptr // leaf of key i; its first word is the value's address
	word   [8]byte

	batchNsPerKey float64 // art.Batch build cost, timed while building
	fromSortedNs  float64 // hashdir.NewFromSorted over every entry
}

const (
	mirrorKH        = 2 // the store's default hash-key length
	mirrorLeafSize  = 40
	mirrorLeafClass = epalloc.Class(0)
	mirrorValClass  = epalloc.Class(1)
)

// latencyConfig is the arena configuration hart.Options{PMWriteNs: 300,
// PMReadNs: 300} produces, or no emulation.
func latencyConfig(emulate bool, size int64) pmem.Config {
	o := core.Options{ArenaSize: size}
	if emulate {
		o.Latency = latency.Config{Mode: latency.ModeSpin, PMWriteNs: 300, PMReadNs: 300, DRAMReadNs: 100, DRAMWriteNs: 15}
		o.CacheModel = true
	}
	return o.ArenaConfig()
}

// newMirror builds the stand-alone layers over keys [0, n) of ks; leaves
// exist for every key of ks so replays of inserts have a slot to refer to.
func newMirror(ks *keyset, n int, emulate bool) (*mirror, error) {
	size := int64(ks.len())*128 + 64<<20
	arena, err := pmem.New(latencyConfig(emulate, size))
	if err != nil {
		return nil, err
	}
	alloc, err := epalloc.New(arena, []epalloc.ClassSpec{
		{Name: "leaf", ObjSize: mirrorLeafSize},
		{Name: "value8", ObjSize: valueLen},
	})
	if err != nil {
		return nil, err
	}
	m := &mirror{ks: ks, arena: arena, alloc: alloc, leaves: make([]pmem.Ptr, ks.len())}
	var val [valueLen]byte
	for i := range m.leaves {
		key := ks.key(uint32(i))
		stripe := epalloc.StripeFor(key[:mirrorKH])
		leaf, err := alloc.AllocStripe(mirrorLeafClass, stripe)
		if err != nil {
			return nil, err
		}
		vp, err := alloc.AllocStripe(mirrorValClass, stripe)
		if err != nil {
			return nil, err
		}
		arena.WriteWords(vp, encodeValue(val[:], uint32(i), 1))
		arena.Write8(leaf, uint64(vp))
		arena.Write1(leaf+8, byte(len(key)))
		arena.WriteAt(leaf+9, key)
		m.leaves[i] = leaf
	}

	// The index side, timed: one art.Batch per directory entry, then the
	// directory in one shot — recovery's build path.
	start := time.Now()
	batches := map[string]*art.Batch{}
	for i := 0; i < n; i++ {
		key := ks.key(uint32(i))
		b := batches[string(key[:mirrorKH])]
		if b == nil {
			b = art.New().BeginBatch()
			batches[string(key[:mirrorKH])] = b
		}
		b.Insert(key[mirrorKH:], uint64(m.leaves[i]))
	}
	prefixes := make([]string, 0, len(batches))
	for p := range batches {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	trees := make([]*art.Tree, len(prefixes))
	for i, p := range prefixes {
		trees[i] = batches[p].Commit()
	}
	m.batchNsPerKey = float64(time.Since(start)) / float64(n)
	start = time.Now()
	m.tab = hashdir.NewFromSorted(prefixes, trees)
	m.fromSortedNs = float64(time.Since(start))
	return m, nil
}

func (m *mirror) tree(key []byte) *art.Tree {
	t, _ := m.tab.Get(key[:mirrorKH])
	return t
}

// readLeaf is the PM side of a Get hit: the leaf's value word, then the value.
func (m *mirror) readLeaf(leaf pmem.Ptr) {
	vp := pmem.Ptr(m.arena.Read8(leaf))
	m.arena.ReadWords(vp, m.word[:])
}

// persistRecord is the PM side of an insert outside the allocator: value,
// value pointer, key and key length, each written and persisted.
func (m *mirror) persistRecord(leaf, vp pmem.Ptr, key []byte) {
	m.arena.WriteWords(vp, m.word[:])
	m.arena.Persist(vp, valueLen)
	m.arena.Write8(leaf, uint64(vp))
	m.arena.Persist(leaf, 8)
	m.arena.WriteAt(leaf+9, key)
	m.arena.Persist(leaf+9, len(key))
	m.arena.Write1(leaf+8, byte(len(key)))
	m.arena.Persist(leaf+8, 1)
}

// allocPair allocates a leaf and a value slot from key's stripe and commits
// both bits, the allocator's share of an insert.
func (m *mirror) allocPair(key []byte) (leaf, vp pmem.Ptr) {
	stripe := epalloc.StripeFor(key[:mirrorKH])
	leaf, _ = m.alloc.AllocStripe(mirrorLeafClass, stripe)
	vp, _ = m.alloc.AllocStripe(mirrorValClass, stripe)
	m.alloc.SetBit(vp)
	m.alloc.SetBit(leaf)
	return leaf, vp
}

func (m *mirror) releasePair(leaf, vp pmem.Ptr) {
	m.alloc.Release(vp)
	m.alloc.Release(leaf)
}

// treeWithout returns key's tree with the key absent, treeWith with it
// present, whatever the mirror's own tree holds: a replayed insert or delete
// is then always the structural operation, not an overwrite or a miss.
func (m *mirror) treeWithout(key []byte) *art.Tree {
	t := m.tree(key)
	if t == nil {
		return art.New()
	}
	if nu, _, ok := t.CowDelete(key[mirrorKH:]); ok {
		return nu
	}
	return t
}

func (m *mirror) treeWith(key []byte, leaf pmem.Ptr) *art.Tree {
	t := m.tree(key)
	if t == nil {
		t = art.New()
	}
	if _, ok := t.Get(key[mirrorKH:]); ok {
		return t
	}
	nu, _, _ := t.CowInsert(key[mirrorKH:], uint64(leaf))
	return nu
}

// codec is the four wire kernels: what a client and a server do to one Get
// or Put and its reply outside the socket and the store.
type codec struct {
	req, resp, frame []byte
	op               wire.Op
}

// appendRequest encodes and frames a Get, or a Put of val, and returns the
// frame's length.
func (c *codec) appendRequest(key, val []byte, put bool) int {
	req := wire.Request{Op: wireOp(put), Key: key}
	if put {
		req.Value = val
	}
	c.op = req.Op
	c.req, _ = req.AppendRequest(c.req[:0])
	c.frame = wire.AppendFrame(c.frame[:0], c.req)
	return len(c.frame)
}

func (c *codec) decodeRequest() { wire.DecodeRequest(c.req) }

func wireOp(put bool) wire.Op {
	if put {
		return wire.OpPut
	}
	return wire.OpGet
}

// appendResponse encodes and frames the OK reply to the last request.
func (c *codec) appendResponse(val []byte) int {
	resp := wire.Response{Status: wire.StatusOK}
	if c.op == wire.OpGet {
		resp.Value = val
	}
	c.resp, _ = resp.AppendResponse(c.resp[:0], c.op)
	c.frame = wire.AppendFrame(c.frame[:0], c.resp)
	return len(c.frame)
}

func (c *codec) decodeResponse() { wire.DecodeResponse(c.resp, c.op) }
