package modelcheck

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"github.com/casl-sdsu/hart/internal/core"
)

// -quick=false switches to the deep sweep: more seeds, longer histories.
// The default quick mode is the deterministic CI gate.
var quick = flag.Bool("quick", true, "run the short deterministic model-check suite")

func quickParams() (seeds, ops int) {
	if *quick {
		return 4, 18
	}
	return 64, 60
}

// TestModelCheckLoggedUpdates sweeps histories against the default
// (Algorithm 3, micro-logged) update path, with re-entrant recovery.
func TestModelCheckLoggedUpdates(t *testing.T) {
	seeds, ops := quickParams()
	for seed := 0; seed < seeds; seed++ {
		if err := RunSeed(int64(seed), ops, Config{ReentrantRecovery: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestModelCheckFileReattach routes every crash image of a seed sweep
// through the file backend as well: the durable bytes are written to a
// real file, reopened via pmem.OpenFileArena and recovered from there.
// What a crash image recovers to must not depend on the medium it sits
// on.
func TestModelCheckFileReattach(t *testing.T) {
	seeds, ops := quickParams()
	if seeds > 2 {
		seeds = 2 // each boundary pays a file write; two seeds keep CI honest and fast
	}
	dir := t.TempDir()
	for seed := 0; seed < seeds; seed++ {
		if err := RunSeed(int64(4000+seed), ops, Config{FileReattach: true, FileReattachDir: dir}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestModelCheckChunkRecycle forces a history through the recycle-log
// unlink path: enough inserts to fill multiple 56-object leaf chunks — and,
// the values being too long for the leaf, as many value chunks — then
// deletion of every key, so the sweep crosses chunk recycling in both
// classes at every persist boundary. The key universe is too small for Generate to
// reach this, so the history is written out longhand.
func TestModelCheckChunkRecycle(t *testing.T) {
	var hist History
	nkeys := 2*56 + 9 // three leaf chunks in play
	if *quick {
		nkeys = 56 + 9 // two chunks: still crosses a chunk unlink
	}
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("rc%04d", i))
		hist.Ops = append(hist.Ops, Op{Kind: OpPut, Key: keys[i], Value: []byte(fmt.Sprintf("recycle-%04d", i))})
	}
	// Delete back-to-front so the last chunk empties (and recycles) first.
	for i := len(keys) - 1; i >= 0; i-- {
		hist.Ops = append(hist.Ops, Op{Kind: OpDelete, Key: keys[i]})
	}
	if err := RunHistory(hist, Config{ReentrantRecovery: !*quick}); err != nil {
		t.Fatal(err)
	}
}

// TestModelCheckUpdateAcrossChunks sweeps the logged update between value
// objects through the allocator states the generated histories' small key
// universe never reaches, each crashed at every persist boundary and —
// re-entrant — at every boundary of the recovery that follows. 56 records
// under one directory prefix (one shard, one allocator stripe), their
// values too long for the leaf, fill the stripe's first value chunk
// exactly, so the first update sets up a fresh chunk between claiming its
// log and committing it; the second lands in that chunk; the third takes
// the value into the leaf, leaving a slot in the chunk; then back out into
// it, and — after two deletes have opened slots in the full chunk — a batch
// whose updates stay out of line and move in around an insert. Last, the
// values left in the second chunk move into their leaves, the final move
// emptying the chunk under a logged update.
func TestModelCheckUpdateAcrossChunks(t *testing.T) {
	var hist History
	key := func(i int) []byte { return []byte(fmt.Sprintf("up%03d", i)) }
	for i := 0; i < 56; i++ {
		hist.Ops = append(hist.Ops, Op{Kind: OpPut, Key: key(i), Value: []byte(fmt.Sprintf("object-%03d", i))})
	}
	hist.Ops = append(hist.Ops,
		Op{Kind: OpPut, Key: key(7), Value: []byte("chunks-are-full")}, // class's chunks full: fresh chunk
		Op{Kind: OpPut, Key: key(8), Value: []byte("same-chunk")},
		Op{Kind: OpPut, Key: key(8), Value: []byte("inline")}, // object to leaf
		Op{Kind: OpPut, Key: key(9), Value: []byte("same-chunk-2")},
		Op{Kind: OpPut, Key: key(8), Value: []byte("object-again")}, // leaf to object
		Op{Kind: OpDelete, Key: key(20)},
		Op{Kind: OpDelete, Key: key(21)},
		Op{Kind: OpBatch, Batch: []core.Record{
			{Key: key(10), Value: []byte("b-same-shape")},
			{Key: key(56), Value: []byte("b-insert-object")},
			{Key: key(11), Value: []byte("b-inline")},
		}},
		Op{Kind: OpDelete, Key: key(11)},
		// Every value left in the second chunk moves into its leaf; the
		// last move empties the chunk, so the logged update recycles it
		// and so does its log's replay, crashed in turn.
		Op{Kind: OpPut, Key: key(9), Value: []byte("in-9")},
		Op{Kind: OpPut, Key: key(8), Value: []byte("in-8")},
		Op{Kind: OpPut, Key: key(10), Value: []byte("in-10")},
		Op{Kind: OpPut, Key: key(56), Value: []byte("in-56")},
		Op{Kind: OpPut, Key: key(7), Value: []byte("in-7")},
	)
	if err := RunHistory(hist, Config{ReentrantRecovery: true}); err != nil {
		t.Fatal(err)
	}
}

// TestModelCheckMixedWorstCase is one fixed, dense history touching every
// op kind, checked with re-entrant recovery.
func TestModelCheckMixedWorstCase(t *testing.T) {
	hist := History{Ops: []Op{
		{Kind: OpPut, Key: []byte("aa"), Value: []byte("one")},
		{Kind: OpPut, Key: []byte("aab"), Value: []byte("two")},
		{Kind: OpPut, Key: []byte("aa"), Value: []byte("three")}, // update
		{Kind: OpBatch, Batch: []core.Record{
			{Key: []byte("ba"), Value: []byte("four")},
			{Key: []byte("aab"), Value: []byte("five")}, // update inside batch
			{Key: []byte("ca"), Value: []byte("six")},
		}},
		{Kind: OpScanReverse, End: []byte("ba")}, // end == hash key boundary
		{Kind: OpDelete, Key: []byte("aa")},
		{Kind: OpPut, Key: []byte("aa"), Value: []byte("seven")}, // reuse the slot
		{Kind: OpDelete, Key: []byte("missing")},
		{Kind: OpScan, Start: []byte("aa"), End: []byte("cb")},
		{Kind: OpDelete, Key: []byte("ba")},
	}}
	if err := RunHistory(hist, Config{ReentrantRecovery: true}); err != nil {
		t.Fatal(err)
	}
}

// TestModelCheckBigMultiShardBatch sweeps a history whose batches span
// every hash-directory shard of the key universe at once — one call
// crosses several groups, each committing its records one by one inside
// one seqlock section — including a duplicate key (insert then update
// inside one batch) and an update-heavy follow-up batch, with re-entrant
// recovery.
func TestModelCheckBigMultiShardBatch(t *testing.T) {
	var big []core.Record
	for i, k := range keyUniverse {
		big = append(big, core.Record{Key: k, Value: []byte{byte('A' + i), 2}})
	}
	// Duplicate of a key inserted earlier in the same batch: the second
	// record updates the leaf the first one committed.
	big = append(big, core.Record{Key: keyUniverse[2], Value: []byte("dupwins")})

	hist := History{Ops: []Op{
		{Kind: OpBatch, Batch: big}, // all inserts, one per shard
		{Kind: OpBatch, Batch: []core.Record{ // updates + inserts interleaved
			{Key: []byte("aa"), Value: []byte("u1")},
			{Key: []byte("aanew"), Value: []byte("n1")},
			{Key: []byte("aab"), Value: []byte("u2")},
			{Key: []byte("ba"), Value: []byte("u3")},
			{Key: []byte("banew"), Value: []byte("n2")},
		}},
		{Kind: OpScan},
		{Kind: OpDelete, Key: keyUniverse[0]},
		{Kind: OpBatch, Batch: []core.Record{ // re-insert + pure updates
			{Key: keyUniverse[0], Value: []byte("back")},
			{Key: []byte("ca"), Value: []byte("u4")},
		}},
	}}
	if err := RunHistory(hist, Config{ReentrantRecovery: !*quick}); err != nil {
		t.Fatal(err)
	}
}

// TestModelCheckRecoveryModes sweeps seeded histories with recovery
// running parallel, lazy, and lazy-parallel, all with re-entrant
// recovery: every crash point is recovered under each mode and every
// persist boundary of that recovery is crashed again. Lazy recovery
// defers the ART builds but performs no PM write for them, so its
// persist sequence — the thing the re-entrant sweep crashes through —
// must be identical to eager's; divergence here would mean the drain is
// not purely volatile.
func TestModelCheckRecoveryModes(t *testing.T) {
	seeds, ops := quickParams()
	if *quick {
		seeds = 2
	}
	modes := []Config{
		{RecoveryWorkers: 4, ReentrantRecovery: true},
		{LazyRecovery: true, ReentrantRecovery: true},
		{RecoveryWorkers: 4, LazyRecovery: true, ReentrantRecovery: true},
	}
	for _, cfg := range modes {
		for seed := 0; seed < seeds; seed++ {
			if err := RunSeed(int64(3000+seed), ops, cfg); err != nil {
				t.Fatalf("workers=%d lazy=%v: %v", cfg.RecoveryWorkers, cfg.LazyRecovery, err)
			}
		}
	}
}

// TestFromBytesTotal checks the fuzz decoder is total and its histories
// replay deterministically through the live differential pass.
func TestFromBytesTotal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		data := make([]byte, r.Intn(64))
		r.Read(data)
		hist := FromBytes(data)
		if len(hist.Ops) > maxFuzzOps {
			t.Fatalf("FromBytes produced %d ops", len(hist.Ops))
		}
	}
}

// TestGenerateDeterministic pins the generator: the same seed must yield
// the same history, or boundary replays would diverge between processes.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(42)), 30)
	b := Generate(rand.New(rand.NewSource(42)), 30)
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("lengths differ")
	}
	for i := range a.Ops {
		if a.Ops[i].String() != b.Ops[i].String() {
			t.Fatalf("op %d differs: %s vs %s", i, a.Ops[i], b.Ops[i])
		}
	}
}

// Values by shape, for the histories below: in the leaf up to 8 bytes
// (zeros included: an inline value of zero bytes is a legal word 0, and
// the update log must not take it for an empty record), in a value object
// above.
var (
	in8a, in8b = []byte("eight-by"), []byte("EIGHT-BY")
	in8zero    = make([]byte, 8)
	in5, in1   = []byte("five!"), []byte{0}
	out16      = []byte("sixteen-bytes-ok")
	out9       = []byte("nine-byte")
)

// inlineShapeHistories are the fixed histories that take records through
// every pair of value shapes. Word 0 and the shape byte of a leaf share a
// cache line in seven slots of eight and straddle two in the eighth, so
// the histories that rewrite both work on eight keys under one directory
// prefix — eight consecutive slots of one chunk — and apply each step to
// all of them.
func inlineShapeHistories() map[string]History {
	group := func(i int) []byte { return []byte(fmt.Sprintf("sh-slot%d", i)) }
	each := func(h *History, v []byte) {
		for i := 0; i < 8; i++ {
			h.Ops = append(h.Ops, Op{Kind: OpPut, Key: group(i), Value: v})
		}
	}
	put := func(k string, v []byte) Op { return Op{Kind: OpPut, Key: []byte(k), Value: v} }
	del := func(k string) Op { return Op{Kind: OpDelete, Key: []byte(k)} }

	// One store per update, whatever the length as long as it stays.
	same := History{Ops: []Op{
		put("aa", in8a), put("aab", in1), put("ba", in5),
		put("aa", in8b), put("aab", []byte{1}), put("ba", []byte("FIVE?")),
		put("aa", in8zero), put("aa", in8a),
		{Kind: OpScan},
	}}

	// The shape byte changes with word 0; to zeros and back too.
	var length History
	each(&length, in8a)
	each(&length, in5)
	each(&length, in8zero)
	each(&length, in1)
	length.Ops = append(length.Ops, Op{Kind: OpScanReverse})

	// Out of the leaf and back in, on one key: the first trip sets up the
	// value class's first chunk mid-update, the later ones reuse its slots.
	var inOut History
	each(&inOut, in8a)
	each(&inOut, out16)
	each(&inOut, in8b)
	each(&inOut, out9)
	each(&inOut, in5)

	// One leaf slot, and one value slot, under records of both shapes in
	// turn: all keys share a directory prefix and a leaf class, so a
	// delete's slot is the next insert's. The suffix picks the class: none
	// for 24-byte leaves, a long one for 40-byte leaves.
	slot := func(sfx string) History {
		k := func(name string) string { return name + sfx }
		return History{Ops: []Op{
			put(k("sr-a"), in8a), put(k("sr-b"), out16),
			del(k("sr-a")), put(k("sr-c"), out16), // a's leaf slot now holds a pointer
			del(k("sr-b")), put(k("sr-d"), in5), // b's leaf slot an inline value; b's value slot is free
			del(k("sr-c")), put(k("sr-a"), in8zero), // c's leaf slot zeros; c's value slot is free
			put(k("sr-e"), out9), // takes a freed value slot
			del(k("sr-d")), del(k("sr-a")), del(k("sr-e")),
			put(k("sr-f"), in1),
			{Kind: OpScan},
		}}
	}

	// Duplicate keys inside one PutBatch whose occurrences differ in shape:
	// the first is an insert, the later ones update the leaf it settles —
	// across the boundary in both directions, beside plain records.
	batch := History{Ops: []Op{
		{Kind: OpBatch, Batch: []core.Record{
			{Key: []byte("bd-k"), Value: in8a},
			{Key: []byte("bd-k"), Value: out16},
			{Key: []byte("bd-k"), Value: in5},
			{Key: []byte("bd-j"), Value: out9},
			{Key: []byte("bd-j"), Value: in1},
			{Key: []byte("bd-plain"), Value: in8b},
		}},
		{Kind: OpBatch, Batch: []core.Record{
			{Key: []byte("bd-k"), Value: out16},
			{Key: []byte("bd-k"), Value: in8zero},
			{Key: []byte("bd-j"), Value: in8a},
			{Key: []byte("bd-j"), Value: in8b},
			{Key: []byte("bd-new"), Value: out9},
			{Key: []byte("bd-new"), Value: out16},
			{Key: []byte("bd-plain"), Value: out16},
		}},
		{Kind: OpScan},
		del("bd-k"), del("bd-new"),
	}}

	return map[string]History{
		"same length":                        same,
		"length change":                      length,
		"in and out":                         inOut,
		"slot across shapes":                 slot(""),
		"slot across shapes, 40-byte leaves": slot("-in-a-40B-leaf"),
		"batch of duplicates":                batch,
	}
}

// TestModelCheckInlineShapes sweeps the fixed shape histories at every
// persist boundary, with a second crash at every boundary of the recovery
// that follows, under every recovery mode and file reattach.
func TestModelCheckInlineShapes(t *testing.T) {
	configs := map[string]Config{
		"serial recovery":   {ReentrantRecovery: true},
		"parallel recovery": {RecoveryWorkers: 4, ReentrantRecovery: true},
		"lazy recovery":     {LazyRecovery: true, ReentrantRecovery: true},
		"lazy parallel":     {RecoveryWorkers: 4, LazyRecovery: true, ReentrantRecovery: true},
		"file reattach":     {FileReattach: true, FileReattachDir: t.TempDir()},
	}
	for hname, hist := range inlineShapeHistories() {
		for cname, cfg := range configs {
			// A few chunks is all these histories reserve, and every replay
			// and every recovery of the sweep pays for the arena's size.
			cfg.ArenaSize = 256 << 10
			if err := RunHistory(hist, cfg); err != nil {
				t.Errorf("%s, %s: %v", hname, cname, err)
			}
		}
	}
}

// shapeCensus replays a history against a plain map and counts its updates
// — a Put or batch record whose key is live — and how many of them change
// the record's shape: the inline length, or the side of the 8-byte boundary
// the value is on.
func shapeCensus(hist History) (updates, reshaping int) {
	shape := func(v string) int { // core's valueShape
		if len(v) > core.MaxInlineLen {
			return 0
		}
		return len(v)
	}
	m := model{}
	put := func(k, v []byte) {
		if old, live := m[string(k)]; live {
			updates++
			if shape(old) != shape(string(v)) {
				reshaping++
			}
		}
		m[string(k)] = string(v)
	}
	for _, op := range hist.Ops {
		switch op.Kind {
		case OpPut:
			put(op.Key, op.Value)
		case OpBatch:
			for _, r := range op.Batch {
				put(r.Key, r.Value)
			}
		default:
			m.apply(op)
		}
	}
	return updates, reshaping
}

// TestGeneratedHistoriesChangeShapes pins what the seeded sweeps above are
// relied on for beside the fixed histories: the generator draws values of
// 1 to 16 bytes, so the histories of the seeds those sweeps run are full of
// updates that change a record's shape, unasked.
func TestGeneratedHistoriesChangeShapes(t *testing.T) {
	_, ops := quickParams()
	updates, reshaping := 0, 0
	for _, seed := range []int64{0, 1, 2, 3, 3000, 3001, 4000, 4001, 5000, 5001, 5002, 5003} {
		u, r := shapeCensus(Generate(rand.New(rand.NewSource(seed)), ops))
		updates, reshaping = updates+u, reshaping+r
	}
	t.Logf("%d updates in the quick suite's seeded histories, %d of them shape-changing", updates, reshaping)
	if reshaping*2 < updates {
		t.Fatalf("only %d of %d generated updates change the record's shape", reshaping, updates)
	}
}
