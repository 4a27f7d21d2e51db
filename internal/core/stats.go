package core

import (
	"sort"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// Name implements kv.Index.
func (h *HART) Name() string { return "HART" }

// SizeInfo implements kv.Index (PM/DRAM split, paper Fig. 10b).
func (h *HART) SizeInfo() kv.SizeInfo {
	st := h.Stats()
	return kv.SizeInfo{PMBytes: st.Size.PMBytes, DRAMBytes: st.Size.DRAMBytes}
}

// Compile-time interface checks.
var (
	_ kv.Index       = (*HART)(nil)
	_ kv.Recoverable = (*HART)(nil)
	_ kv.Checkable   = (*HART)(nil)
)

// SizeInfo reports the PM and DRAM footprint of the index, the quantities
// compared in the paper's memory-consumption experiment (Fig. 10b).
type SizeInfo struct {
	// PMBytes is the persistent footprint: every byte reserved from the
	// arena (superblock, chunk lists, free lists).
	PMBytes int64
	// DRAMBytes is the volatile footprint: the ARTs as art.Stats counts
	// them (inner nodes and the DRAM leaves that hold each key and its PM
	// leaf's offset, at their heap size classes) plus an estimate of the
	// hash directory.
	DRAMBytes int64
}

// Stats aggregates the state of a HART instance.
type Stats struct {
	// Records is the number of live records, InlineRecords how many of
	// them hold their value in the leaf (the rest have a value object).
	Records       int
	InlineRecords int
	// ARTs is the number of ARTs in the hash directory.
	ARTs int
	// Size is the PM/DRAM footprint.
	Size SizeInfo
	// ART aggregates node counts over all ARTs.
	ART art.Stats
	// Arena is the PM device's counters.
	Arena pmem.Stats
	// Alloc is the allocator's per-class state.
	Alloc []epalloc.ClassStats
	// Dir describes the elastic directory's current geometry and heat.
	Dir DirStats
}

// DirStats describes the hash directory's geometry — flat at BaseDepth
// until elastic splits deepen parts of it — and where the write heat is.
type DirStats struct {
	// Entries is the number of directory entries (== ARTs).
	Entries int
	// BaseDepth is the configured hash-key length; MaxDepth is the
	// longest live entry prefix (== BaseDepth when nothing is split).
	BaseDepth int
	MaxDepth  int
	// Splits is the number of currently persisted split prefixes, out of
	// SplitCap superblock slots.
	Splits   int
	SplitCap int
	// SplitsDone and MergesDone count geometry changes since Open.
	SplitsDone uint64
	MergesDone uint64
	// Hot lists the hottest shards (by heat since the last split/merge
	// decision), descending, at most eight.
	Hot []ShardHeat
}

// ShardHeat is one directory entry's write-activity snapshot.
type ShardHeat struct {
	// Prefix is the entry's directory prefix.
	Prefix string
	// Heat is the write-op count since the last split/merge decision;
	// Ops is the shard's cumulative write count.
	Heat uint64
	Ops  uint64
	// Records is the shard's current tree size (0 for a still-pending
	// lazily recovered shard).
	Records int
}

// hash-directory per-entry DRAM cost estimate: map bucket share + string
// header + shard struct + sorted-slice entry.
const dirEntryCost = 128

// Stats collects statistics. Lock-free: it walks the current directory
// snapshot and each shard's published tree, both immutable. During a
// lazy recovery (PendingShards > 0) unbuilt shards contribute empty
// trees to the DRAM accounting; Records stays exact.
func (h *HART) Stats() Stats {
	st := Stats{
		Records: h.Len(),
		Arena:   h.arena.Stats(),
		Alloc:   h.alloc.Stats(),
	}
	st.Size.PMBytes = st.Arena.Reserved
	// Every live value object belongs to exactly one record (Check's
	// invariant 3), so the value classes' live counts say how many records
	// are not inline.
	st.InlineRecords = st.Records
	for _, cs := range st.Alloc[classValue0:] {
		st.InlineRecords -= cs.Used
	}

	d := h.dir.Load()
	type namedShard struct {
		hk string
		s  *artShard
	}
	shards := make([]namedShard, 0, d.tab.Len())
	d.tab.Range(func(hk []byte, s *artShard) bool {
		shards = append(shards, namedShard{string(hk), s})
		return true
	})
	dirBytes := d.tab.DRAMBytes()

	st.ARTs = len(shards)
	st.Size.DRAMBytes = int64(st.ARTs)*dirEntryCost + dirBytes
	st.Dir = DirStats{
		Entries:    len(shards),
		BaseDepth:  h.opts.HashKeyLen,
		MaxDepth:   h.opts.HashKeyLen,
		Splits:     d.splits.Len(),
		SplitCap:   int(sbMaxSplits),
		SplitsDone: h.splitCount.Load(),
		MergesDone: h.mergeCount.Load(),
	}
	for _, ns := range shards {
		ts := ns.s.tree.Load().Stats()
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
		if len(ns.hk) > st.Dir.MaxDepth {
			st.Dir.MaxDepth = len(ns.hk)
		}
		st.Dir.Hot = append(st.Dir.Hot, ShardHeat{
			Prefix:  ns.hk,
			Heat:    ns.s.heat.Load(),
			Ops:     ns.s.ops.Load(),
			Records: ts.Records,
		})
	}
	sort.SliceStable(st.Dir.Hot, func(i, j int) bool { return st.Dir.Hot[i].Heat > st.Dir.Hot[j].Heat })
	if len(st.Dir.Hot) > 8 {
		st.Dir.Hot = st.Dir.Hot[:8]
	}
	return st
}
