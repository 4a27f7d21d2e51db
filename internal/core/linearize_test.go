package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// A linearizability checker for concurrent histories of Put, Delete, Get
// and PutBatch. Every operation of these is on one key (a PutBatch is one
// Put per record, each linearizing on its own inside the batch's
// interval), and linearizability is local (Herlihy & Wing 1990): a history
// is linearizable exactly when each key's part of it is. So the history is
// split by key, and each key's part is checked as a register that is
// absent or holds one value, by the Wing–Gong search with Lowe's
// memoisation of (operations linearized, register state).

type linKind uint8

const (
	linPut linKind = iota
	linDelete
	linGet
)

// linOp is one completed operation. call and ret are stamps from one
// counter shared by every goroutine, taken just before the call and just
// after it returned, so op a precedes op b in real time iff a.ret < b.call.
type linOp struct {
	kind      linKind
	key       string
	val       string // what a Put wrote, what a Get returned
	ok        bool   // Get found the key; Delete removed it
	call, ret uint64
}

func (o linOp) String() string {
	switch o.kind {
	case linPut:
		return fmt.Sprintf("[%d,%d] put %x", o.call, o.ret, o.val)
	case linDelete:
		return fmt.Sprintf("[%d,%d] delete -> %v", o.call, o.ret, o.ok)
	}
	if !o.ok {
		return fmt.Sprintf("[%d,%d] get -> absent", o.call, o.ret)
	}
	return fmt.Sprintf("[%d,%d] get -> %x", o.call, o.ret, o.val)
}

// linLog records one goroutine's operations on h.
type linLog struct {
	h     *HART
	clock *atomic.Uint64
	buf   []byte
	ops   []linOp
}

func (l *linLog) put(t *testing.T, key, val []byte) {
	call := l.clock.Add(1)
	err := l.h.Put(key, val)
	ret := l.clock.Add(1)
	if err != nil {
		t.Errorf("Put(%q): %v", key, err)
		return
	}
	l.ops = append(l.ops, linOp{kind: linPut, key: string(key), val: string(val), call: call, ret: ret})
}

func (l *linLog) putBatch(t *testing.T, recs []Record) {
	call := l.clock.Add(1)
	n, err := l.h.PutBatch(recs)
	ret := l.clock.Add(1)
	if err != nil || n != len(recs) {
		t.Errorf("PutBatch of %d = (%d, %v)", len(recs), n, err)
		return
	}
	for _, r := range recs {
		l.ops = append(l.ops, linOp{kind: linPut, key: string(r.Key), val: string(r.Value), call: call, ret: ret})
	}
}

func (l *linLog) del(t *testing.T, key []byte) {
	call := l.clock.Add(1)
	err := l.h.Delete(key)
	ret := l.clock.Add(1)
	if err != nil && err != ErrNotFound {
		t.Errorf("Delete(%q): %v", key, err)
		return
	}
	l.ops = append(l.ops, linOp{kind: linDelete, key: string(key), ok: err == nil, call: call, ret: ret})
}

func (l *linLog) get(key []byte) {
	call := l.clock.Add(1)
	v, ok := l.h.GetInto(key, l.buf)
	ret := l.clock.Add(1)
	l.ops = append(l.ops, linOp{kind: linGet, key: string(key), val: string(v), ok: ok, call: call, ret: ret})
}

// linState is a key's register: absent, or present holding val.
type linState struct {
	present bool
	val     string
}

// apply runs op against s and reports whether its result is one s allows.
func (s linState) apply(op linOp) (linState, bool) {
	switch op.kind {
	case linPut:
		return linState{true, op.val}, true
	case linDelete:
		return linState{}, op.ok == s.present
	}
	return s, op.ok == s.present && (!op.ok || op.val == s.val)
}

// linearizable reports whether one key's history, sorted by call, has a
// linearization from an absent key. The search extends a prefix of the
// linearization one operation at a time: an operation may come next only
// if it was called before every operation not yet placed had returned,
// and only if the register allows its result. A (placed set, state) pair
// already explored is not explored again.
func linearizable(ops []linOp) bool {
	done := make([]uint64, (len(ops)+63)/64)
	seen := map[string]bool{}
	memo := func(s linState) string {
		var b strings.Builder
		for _, w := range done {
			binary.Write(&b, binary.LittleEndian, w)
		}
		if s.present {
			b.WriteByte(1)
			b.WriteString(s.val)
		}
		return b.String()
	}
	placed := func(i int) bool { return done[i/64]&(1<<(i%64)) != 0 }
	// first is an op not yet placed; every op before it is.
	var search func(s linState, left, first int) bool
	search = func(s linState, left, first int) bool {
		if left == 0 {
			return true
		}
		for placed(first) {
			first++
		}
		deadline := uint64(math.MaxUint64)
		for i := first; i < len(ops); i++ {
			if !placed(i) {
				deadline = min(deadline, ops[i].ret)
			}
		}
		for i := first; i < len(ops) && ops[i].call < deadline; i++ {
			if placed(i) {
				continue
			}
			next, legal := s.apply(ops[i])
			if !legal {
				continue
			}
			done[i/64] |= 1 << (i % 64)
			if k := memo(next); !seen[k] {
				seen[k] = true
				if search(next, left-1, first) {
					return true
				}
			}
			done[i/64] &^= 1 << (i % 64)
		}
		return false
	}
	return search(linState{}, len(ops), 0)
}

// checkLinearizable checks every key's part of the goroutines' logs and
// fails t with the history of the first key that has no linearization.
func checkLinearizable(t *testing.T, logs []*linLog) {
	t.Helper()
	byKey := map[string][]linOp{}
	total := 0
	for _, l := range logs {
		for _, op := range l.ops {
			byKey[op.key] = append(byKey[op.key], op)
			total++
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	overlapped := 0
	for _, k := range keys {
		ops := byKey[k]
		sort.Slice(ops, func(i, j int) bool { return ops[i].call < ops[j].call })
		end := uint64(0)
		for i, op := range ops {
			if op.call < end || i+1 < len(ops) && ops[i+1].call < op.ret {
				overlapped++
			}
			end = max(end, op.ret)
		}
		if !linearizable(ops) {
			var b strings.Builder
			for _, op := range ops {
				fmt.Fprintf(&b, "\n\t%v", op)
			}
			t.Fatalf("key %q: no linearization of its %d operations:%s", k, len(ops), &b)
		}
	}
	t.Logf("%d operations on %d keys linearizable, %d of them concurrent with another on their key", total, len(keys), overlapped)
}

// linWorkload is one driver's mix: workers goroutines run ops operations
// each, on keys drawn from keys, with values whose lengths are drawn from
// lens. A PutBatch of up to batch distinct keys replaces a Put one time
// in four when batch > 0.
type linWorkload struct {
	opts    Options
	keys    [][]byte
	lens    []int
	workers int
	ops     int
	batch   int
}

// linValue is worker w's seq-th value, n bytes long: unique for n >= 3, so
// a Get names the Put it read.
func linValue(w, seq, n int) []byte {
	v := make([]byte, n)
	id := uint32(w)<<20 | uint32(seq)
	v[0], v[1], v[2] = byte(id), byte(id>>8), byte(id>>16)
	for i := 3; i < n; i++ {
		v[i] = byte(seq + i)
	}
	return v
}

// run drives the workload against a fresh store and checks the history.
func (wl linWorkload) run(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	h, err := New(wl.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var clock atomic.Uint64
	logs := make([]*linLog, wl.workers)
	start := make(chan struct{}) // every worker ready before the first op
	var wg sync.WaitGroup
	for w := range logs {
		l := &linLog{h: h, clock: &clock, buf: make([]byte, 0, MaxValueLen)}
		logs[w] = l
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(w) + 1))
			value := func(seq int) []byte { return linValue(w, seq, wl.lens[rng.Intn(len(wl.lens))]) }
			for seq := 0; seq < wl.ops && !t.Failed(); seq++ {
				key := wl.keys[rng.Intn(len(wl.keys))]
				switch r := rng.Intn(8); {
				case r == 0 && wl.batch > 0:
					var recs []Record
					for _, i := range rng.Perm(len(wl.keys))[:1+rng.Intn(wl.batch)] {
						recs = append(recs, Record{Key: wl.keys[i], Value: value(seq)})
					}
					l.putBatch(t, recs)
				case r < 3:
					l.put(t, key, value(seq))
				case r < 5:
					l.del(t, key)
				default:
					l.get(key)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if !t.Failed() {
		checkLinearizable(t, logs)
	}
}

// linKeys returns keys spelled from stems: each stem on its own and with
// every byte of tails appended.
func linKeys(stems []string, tails string) [][]byte {
	var keys [][]byte
	for _, s := range stems {
		keys = append(keys, []byte(s))
		for i := 0; i < len(tails); i++ {
			keys = append(keys, []byte(s+tails[i:i+1]))
		}
	}
	return keys
}

// TestLinearizableShardChurn: at kh = 1 few keys share a shard, so shards
// empty, leave the directory and come back under the writers, and the
// ART under one hash byte grows through every node kind and shrinks
// again while keys that end inside other keys' paths keep terminators and
// prefix splits in play.
func TestLinearizableShardChurn(t *testing.T) {
	var fan strings.Builder
	for i := 0; i < 56; i++ {
		fan.WriteByte(byte('0' + i))
	}
	keys := append(linKeys([]string{"a", "ab", "abcdefgh"}, "xy"), linKeys([]string{"b"}, fan.String())...)
	linWorkload{
		opts: Options{ArenaSize: 16 << 20, HashKeyLen: 1},
		keys: keys, lens: []int{3, 8, 16}, workers: 4, ops: 3000,
	}.run(t)
}

// TestLinearizableShapeCycling: values change shape under the readers on
// every write — in the leaf, in a value object, and across the boundary,
// which takes the logged update and republishes the key's ref.
func TestLinearizableShapeCycling(t *testing.T) {
	linWorkload{
		opts: Options{ArenaSize: 16 << 20},
		keys: linKeys([]string{"sc-key"}, "0123456789"), lens: []int{3, 5, 8, 9, 16}, workers: 4, ops: 3000,
	}.run(t)
}

// TestLinearizablePutBatchGroups: PutBatch groups span three shards and
// overlap other writers' groups, Puts and Deletes key for key, so a group
// holds a seqlock section open across records that readers are racing for.
func TestLinearizablePutBatchGroups(t *testing.T) {
	var keys [][]byte
	for _, p := range []string{"ga", "gb", "gc"} {
		keys = append(keys, linKeys([]string{p + "-k"}, "0123")...)
	}
	linWorkload{
		opts: Options{ArenaSize: 16 << 20},
		keys: keys, lens: []int{3, 8, 16}, workers: 4, ops: 2000, batch: 6,
	}.run(t)
}

// TestLinearizableChecker holds the checker itself to known answers.
func TestLinearizableChecker(t *testing.T) {
	put := func(v string, call, ret uint64) linOp { return linOp{kind: linPut, val: v, call: call, ret: ret} }
	get := func(v string, ok bool, call, ret uint64) linOp {
		return linOp{kind: linGet, val: v, ok: ok, call: call, ret: ret}
	}
	del := func(ok bool, call, ret uint64) linOp { return linOp{kind: linDelete, ok: ok, call: call, ret: ret} }
	for _, c := range []struct {
		name string
		ops  []linOp
		want bool
	}{
		{"sequential", []linOp{put("a", 1, 2), get("a", true, 3, 4), del(true, 5, 6), get("", false, 7, 8)}, true},
		{"stale read", []linOp{put("a", 1, 2), put("b", 3, 4), get("a", true, 5, 6)}, false},
		{"overlapping put", []linOp{put("a", 1, 2), put("b", 3, 8), get("a", true, 4, 5), get("b", true, 6, 7)}, true},
		{"read goes back", []linOp{put("a", 1, 2), put("b", 3, 10), get("b", true, 4, 5), get("a", true, 6, 7)}, false},
		{"never written", []linOp{get("z", true, 1, 2)}, false},
		{"lost delete", []linOp{put("a", 1, 2), del(true, 3, 4), get("a", true, 5, 6)}, false},
		{"double delete", []linOp{put("a", 1, 2), del(true, 3, 6), del(true, 4, 5)}, false},
		{"concurrent delete", []linOp{put("a", 1, 2), del(true, 3, 6), del(false, 4, 5)}, true},
	} {
		if got := linearizable(c.ops); got != c.want {
			t.Errorf("%s: linearizable = %v, want %v", c.name, got, c.want)
		}
	}
}
