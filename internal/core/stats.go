package core

import (
	"sort"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// Name implements kv.Index.
func (h *HART) Name() string { return "HART" }

// SizeInfo implements kv.Index (PM/DRAM split, paper Fig. 10b).
func (h *HART) SizeInfo() kv.SizeInfo { return h.Stats().Size }

// Compile-time interface checks.
var (
	_ kv.Index       = (*HART)(nil)
	_ kv.Recoverable = (*HART)(nil)
	_ kv.Checkable   = (*HART)(nil)
)

// Stats aggregates the state of a HART instance.
type Stats struct {
	// Records is the number of live records, InlineRecords how many of
	// them hold their value in the leaf (the rest have a value object).
	Records       int
	InlineRecords int
	// ARTs is the number of ARTs in the hash directory.
	ARTs int
	// Size is the PM/DRAM footprint. PMBytes is every byte reserved from
	// the arena (superblock, chunk lists, free lists). DRAMBytes is the
	// ARTs as art.Stats counts them (inner nodes and the DRAM leaves that
	// hold each key and its PM leaf's offset, at their heap size classes)
	// plus the hash directory: its pages and nodes, and one shard struct
	// per entry.
	Size kv.SizeInfo
	// ART aggregates node counts over all ARTs.
	ART art.Stats
	// Arena is the PM device's counters.
	Arena pmem.Stats
	// Alloc is the allocator's per-class state.
	Alloc []epalloc.ClassStats
	// Dir describes the hash directory and where the writes go.
	Dir DirStats
}

// DirStats describes the hash directory: how many entries it has and
// which shards take the most writes.
type DirStats struct {
	// Entries is the number of directory entries (== ARTs).
	Entries int
	// Hot lists the shards with the most records written, by Ops
	// descending, at most eight.
	Hot []HotShard
}

// HotShard is one directory entry's write-activity snapshot.
type HotShard struct {
	// Prefix is the entry's hash key.
	Prefix string
	// Ops is the number of records Put, Update and PutBatch wrote to the
	// shard since it was created (by Open's recovery, or by the first
	// insert under its hash key).
	Ops uint64
	// Records is the shard's current tree size (0 for a still-pending
	// lazily recovered shard).
	Records int
}

// dirEntryCost is the heap cost of each directory entry's shard struct,
// its tree's root word included: 64 B on amd64, which is a Go size class
// of its own, so nothing rounds it up (TestDirectoryBytesMatchHeap holds
// it to the runtime). The directory's pages and nodes are the table's
// DRAMBytes, and the shard's tree is art.Stats' to count.
const dirEntryCost = int64(unsafe.Sizeof(artShard{}))

// Stats collects statistics. It walks the directory's pages with no lock,
// and each shard's tree under the shard's read lock, since writers edit
// trees in place. During a lazy recovery (PendingShards > 0) unbuilt
// shards contribute empty trees to the DRAM accounting; Records stays
// exact.
func (h *HART) Stats() Stats {
	st := Stats{
		Records: h.Len(),
		Arena:   h.arena.Stats(),
		Alloc:   h.alloc.Stats(),
	}
	st.Size.PMBytes = st.Arena.Reserved
	// Every live value object belongs to exactly one record (Check's
	// invariant 3), so the value class's live count says how many records
	// are not inline.
	st.InlineRecords = st.Records - st.Alloc[classValue16].Used

	d := h.dir.Load()
	type namedShard struct {
		hk string
		s  *artShard
	}
	shards := make([]namedShard, 0, d.Len())
	d.Range(func(hk []byte, s *artShard) bool {
		shards = append(shards, namedShard{string(hk), s})
		return true
	})

	st.ARTs = len(shards)
	st.Size.DRAMBytes = int64(st.ARTs)*dirEntryCost + d.DRAMBytes()
	st.Dir.Entries = len(shards)
	for _, ns := range shards {
		ns.s.mu.RLock()
		ts := ns.s.root.Stats()
		ns.s.mu.RUnlock()
		st.ART.Records += ts.Records
		st.ART.Node4s += ts.Node4s
		st.ART.Node16s += ts.Node16s
		st.ART.Node48s += ts.Node48s
		st.ART.Node256s += ts.Node256s
		if ts.Height > st.ART.Height {
			st.ART.Height = ts.Height
		}
		st.ART.Bytes += ts.Bytes
		st.ART.LeafBytes += ts.LeafBytes
		st.Size.DRAMBytes += ts.Bytes
		st.Dir.Hot = append(st.Dir.Hot, HotShard{
			Prefix:  ns.hk,
			Ops:     ns.s.ops.Load(),
			Records: ts.Records,
		})
	}
	sort.SliceStable(st.Dir.Hot, func(i, j int) bool { return st.Dir.Hot[i].Ops > st.Dir.Hot[j].Ops })
	if len(st.Dir.Hot) > 8 {
		st.Dir.Hot = st.Dir.Hot[:8]
	}
	return st
}
