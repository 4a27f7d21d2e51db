package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// span is one timed call into a layer. A root span is a sampled operation
// as its caller saw it (hart.<op> in process, client.burst on the wire); its
// children are the same operation replayed, right after it returned, through
// the stand-alone layer kernels of the mirror. dur_ns is a span's duration as
// measured. A child's start and end are placed: children sit back to back
// from their parent's start and are cut at its end, so the file reads as a
// tree even where a replay on the cold mirror outran the operation itself.
// Spans of one operation share req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Ops    int    `json:"ops,omitempty"` // operations a root covers (64 for a burst)
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans   []span
	t0      time.Time
	clockNs int64   // cost of timing an empty call, subtracted from every timed span
	parents []int32 // open spans, root first; children attach to the last
	cursor  []int64 // per open span, where its next child starts
	mute    bool    // run timed calls without recording them (warm-up replays)
	clipped int     // children placed shorter than measured because the replay outran the real operation
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	pairs := make([]float64, 1001)
	for i := range pairs {
		a := t.now()
		func() {}()
		pairs[i] = float64(t.now() - a)
	}
	t.clockNs = int64(median(pairs))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a root span for an operation that ran from start to end.
func (t *tracer) open(name string, start, end int64, ops int) {
	if end < start {
		end = start
	}
	id := int32(len(t.spans))
	t.parents, t.cursor = append(t.parents[:0], id), append(t.cursor[:0], start)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Req: id, Name: name, Start: start, End: end, Dur: end - start, Ops: ops})
}

// openSince starts a root span for an operation that began at start and has
// just returned.
func (t *tracer) openSince(name string, start int64, ops int) {
	t.open(name, start, t.now()-t.clockNs, ops)
}

// child appends a child of the innermost open span lasting dur, placed
// after its previous sibling and cut at its parent's end.
func (t *tracer) child(name string, dur int64) {
	if t.mute {
		return
	}
	if dur < 0 {
		dur = 0
	}
	top := len(t.parents) - 1
	parent := t.parents[top]
	start := t.cursor[top]
	end := start + dur
	if limit := t.spans[parent].End; end > limit {
		end = limit
		t.clipped++
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: t.parents[0], Name: name, Start: start, End: end, Dur: dur})
	t.cursor[top] = end
}

// enter makes the last child the innermost open span; leave closes it.
func (t *tracer) enter() {
	last := t.spans[len(t.spans)-1]
	t.parents, t.cursor = append(t.parents, last.ID), append(t.cursor, last.Start)
}

func (t *tracer) leave() {
	t.parents, t.cursor = t.parents[:len(t.parents)-1], t.cursor[:len(t.cursor)-1]
}

// time runs fn as a child of the innermost open span.
func (t *tracer) time(name string, fn func()) {
	a := t.now()
	fn()
	t.child(name, t.now()-a-t.clockNs)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNs returns, for every root span called name, its duration minus its
// children's, as measured: negative where the replay ran slower than the
// operation.
func (t *tracer) selfNs(name string) []float64 {
	var out []float64
	for i := 0; i < len(t.spans); i++ {
		r := t.spans[i]
		if r.Parent != -1 || r.Name != name {
			continue
		}
		self := float64(r.Dur)
		for j := i + 1; j < len(t.spans) && t.spans[j].Parent != -1; j++ {
			if t.spans[j].Parent == r.ID {
				self -= float64(t.spans[j].Dur)
			}
		}
		out = append(out, self)
	}
	return out
}

// ledgerRow is one line of the per-layer ledger: a span name, how often it
// was called, its time per sampled operation with and without its children,
// and its self time as a share of all sampled operations' time.
type ledgerRow struct {
	Name        string  `json:"name"`
	Calls       int     `json:"calls"`
	BusyUsPerOp float64 `json:"busy_us_per_op"`
	SelfUsPerOp float64 `json:"self_us_per_op"`
	SharePct    float64 `json:"share_pct"`
}

// ledger folds the spans by name. Per-operation figures divide by the
// operations the roots cover, so a row reads "of one average sampled
// operation, this much was spent here".
func (t *tracer) ledger() []ledgerRow {
	type acc struct {
		calls      int
		busy, self float64
	}
	by := map[string]*acc{}
	get := func(name string) *acc {
		if by[name] == nil {
			by[name] = &acc{}
		}
		return by[name]
	}
	var ops, total float64
	for _, s := range t.spans {
		d := float64(s.Dur)
		a := get(s.Name)
		a.calls++
		a.busy += d
		a.self += d
		if s.Parent == -1 {
			ops += float64(s.Ops)
			total += d
		} else {
			get(t.spans[s.Parent].Name).self -= d
		}
	}
	if ops == 0 {
		return nil
	}
	rows := make([]ledgerRow, 0, len(by))
	for name, a := range by {
		rows = append(rows, ledgerRow{name, a.calls, a.busy / ops / 1e3, a.self / ops / 1e3, 100 * a.self / total})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUsPerOp > rows[j].SelfUsPerOp })
	return rows
}

func printLedger(w io.Writer, workload string, rows []ledgerRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "ledger %s (per sampled operation; a root's self time is what the replayed kernels do not cover)\n", workload)
	fmt.Fprintf(w, "  %-28s %9s %12s %12s %8s\n", "span", "calls", "busy us/op", "self us/op", "share")
	layers := map[string]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %9d %12.4f %12.4f %7.1f%%\n", r.Name, r.Calls, r.BusyUsPerOp, r.SelfUsPerOp, r.SharePct)
		layer, _, _ := strings.Cut(r.Name, ".")
		layers[layer] += r.SharePct
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprint(w, "  by layer:")
	for _, l := range names {
		fmt.Fprintf(w, " %s %.1f%%", l, layers[l])
	}
	fmt.Fprintln(w)
}

var opNames = [...]string{opGetHit: "hart.get_hit", opGetMiss: "hart.get_miss", opUpdate: "hart.put_update", opInsert: "hart.put_insert", opDelete: "hart.delete"}

// doTraced performs one operation like do, records it as a root span, and
// replays it through the mirror's layers as child spans. The replay runs
// twice: first unrecorded on another key, so the mirror's shared upper levels
// (directory slots, tree roots, allocator headers) are as warm as a steady
// stream of operations keeps the store's; then recorded, on the sampled key.
func (s *embedStore) doTraced(t *tracer, mir *mirror, k opKind, idx uint32) int {
	arts := s.db.NumARTs()
	a := t.now()
	n := s.do(k, idx)
	t.openSince(opNames[k], a, 1)
	key := s.ks.key(idx)
	if k == opGetMiss {
		key = s.nm
	}
	t.mute = true
	other := uint32((int(idx) + 7919) % len(mir.leaves))
	mir.replay(t, k, s.ks.key(other), other)
	t.mute = false
	mir.replay(t, k, key, idx)
	if s.db.NumARTs() != arts {
		t.time("hashdir.clone", func() { mir.tab.Clone() })
	}
	return n
}

// replay runs operation k on key through the stand-alone layers, each layer
// call timed as a child span.
func (mir *mirror) replay(t *tracer, k opKind, key []byte, idx uint32) {
	var tree *art.Tree
	t.time("hashdir.get", func() { tree = mir.tree(key) })
	switch k {
	case opGetHit, opGetMiss, opUpdate:
		var leaf uint64
		var ok bool
		t.time("art.get", func() {
			if tree != nil {
				leaf, ok = tree.Get(key[mirrorKH:])
			}
		})
		if !ok {
			leaf = uint64(mir.leaves[idx]) // a key the mirror's tree never held
		}
		if k == opGetHit {
			t.time("pmem.read8", func() { mir.readLeaf(pmem.Ptr(leaf)) })
		}
		if k == opUpdate {
			// A fresh value slot written, persisted and committed, the leaf's
			// pointer swung and persisted, a value slot released.
			var vp pmem.Ptr
			own := mir.arena.Read8(pmem.Ptr(leaf)) // the mirror's own value stays linked
			t.time("epalloc.alloc_setbit", func() {
				vp, _ = mir.alloc.AllocStripe(mirrorValClass, epalloc.StripeFor(key[:mirrorKH]))
				mir.alloc.SetBit(vp)
			})
			t.time("pmem.persist", func() {
				mir.arena.WriteWords(vp, mir.word[:])
				mir.arena.Persist(vp, valueLen)
				mir.arena.Write8(pmem.Ptr(leaf), own)
				mir.arena.Persist(pmem.Ptr(leaf), 8)
			})
			t.time("epalloc.release", func() { mir.alloc.Release(vp) })
		}
	case opInsert:
		without := mir.treeWithout(key)
		var leaf, vp pmem.Ptr
		t.time("epalloc.alloc_setbit", func() { leaf, vp = mir.allocPair(key) })
		t.time("pmem.persist", func() { mir.persistRecord(leaf, vp, key) })
		t.time("art.cow_insert", func() { without.CowInsert(key[mirrorKH:], uint64(leaf)) })
		mir.releasePair(leaf, vp)
	case opDelete:
		leaf, vp := mir.allocPair(key)
		with := mir.treeWith(key, leaf)
		t.time("epalloc.release", func() { mir.releasePair(leaf, vp) })
		t.time("art.cow_delete", func() { with.CowDelete(key[mirrorKH:]) })
	}
}

// traceEveryBurst is how often wire-mixed's traced pass records and replays a
// burst: one in 16, because a replay costs about as much as the burst. In
// process it is one operation in sampleEvery, the one the loop times anyway.
const traceEveryBurst = 16

// tracePass runs the workload's schedule twice — a short untraced reference
// pass, then the traced pass with one call in every recorded and replayed —
// and reports how much the tracing cost.
func tracePass(cfg *config, rep *report, plain func(seedStream uint64) func() int, traced func(seedStream uint64) (op, sampled func() int), every int) {
	ref := runBlocks(cfg.phaseDur(0.25), cfg.blockDur(), every, processCPU(0), plain(2), nil)
	op, sampled := traced(3)
	tp := runBlocks(cfg.phaseDur(0.5), cfg.blockDur(), every, processCPU(0), op, sampled)
	rep.set("trace.overhead_pct", 100*(1-tp.fastKops()/ref.fastKops()))
}

// writeTrace stores the spans of the run — the traced pass, then the
// sweep's samples — next to the result file.
func writeTrace(cfg *config, t *tracer) error {
	return t.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl"))
}

// traceEmbed is the traced run of an embed workload: the schedule's traced
// pass, then the per-layer sweep on the workload's own store.
func traceEmbed(cfg *config, s *embedStore, mk func(*rng) mix) error {
	mir, err := newMirror(s.ks, s.m.nlive, true)
	if err != nil {
		return err
	}
	t := newTracer()
	tracePass(cfg, s.rep,
		func(stream uint64) func() int { return s.op(mk(newRNG(cfg.seed, stream))) },
		func(stream uint64) (func() int, func() int) {
			next := mk(newRNG(cfg.seed, stream))
			return s.op(next), func() int { k, idx := next(); return s.doTraced(t, mir, k, idx) }
		}, sampleEvery)
	s.rep.Ledger = t.ledger() // the traced pass alone; the sweep's samples follow in the file
	s.rep.mark("trace-pass")
	if err := sweepLayers(cfg, s, mir, t, nil); err != nil {
		return err
	}
	s.rep.mark("sweep")
	return writeTrace(cfg, t)
}
