package art

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// FuzzARTDifferential reads its input as a history of inserts, deletes
// and batch builds and runs it beside a sorted-map model two ways: by
// copying, CowInsert and CowDelete into a new Tree at every step, and in
// place, Insert and Delete on one Root, into which each batch build — the
// model's records and a run of new ones, from empty — is published. After
// every step it checks both trees against the model (contents, order, a
// range scan in both directions, shape invariants, Prefetch against Get)
// and every copied tree made so far against the memory dump taken when it
// was made: not one bit of it may have changed. Run it under -race: that
// is what turns checkptr on for every cast in node.go.
func FuzzARTDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x03abc\x00\x02ab\x00\x05abcde\x03\x02ab\x05\x03\x01a\x01b\x02ab\x06\x00\x07\x01a"))
	// A path two links long, split inside the chain, then re-compressed.
	f.Add([]byte("\x00\x0cabcdefghijk1\x00\x0cabcdefghijk2\x00\x07abcdefg\x00\x03abX\x03\x03abX\x03\x07abcdefg\x03\x0cabcdefghijk1"))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 64+rng.Intn(700))
		rng.Read(seed)
		if i%2 == 0 { // every other seed: wide fanout under short keys
			for j := range seed {
				if j%3 == 1 {
					seed[j] = byte(1 + rng.Intn(2))
				}
			}
		}
		f.Add(seed)
	}
	f.Fuzz(runHistory)
}

// history decodes fuzz input.
type history struct{ data []byte }

func (h *history) byte() byte {
	if len(h.data) == 0 {
		return 0
	}
	b := h.data[0]
	h.data = h.data[1:]
	return b
}

// key draws a key of 0..MaxKeyLen bytes. Half the byte values map onto
// four symbols, so that keys share prefixes and end inside one another;
// the rest stay as they are, so that nodes can grow wide.
func (h *history) key() []byte {
	k := make([]byte, int(h.byte())%(MaxKeyLen+1))
	for i := range k {
		if b := h.byte(); b < 0x80 {
			k[i] = "\x00ab\xff"[b&3]
		} else {
			k[i] = b
		}
	}
	return k
}

// rootOf returns a Root holding t's nodes, for Prefetch; it must not be
// edited.
func rootOf(t *Tree) *Root {
	r := new(Root)
	r.p.Store(t.root)
	return r
}

func runHistory(t *testing.T, data []byte) {
	h := &history{data}
	cur := New()
	var live Root
	model := map[string]uint64{}
	type snapshot struct {
		tree *Tree
		dump []byte
	}
	snaps := []snapshot{{cur, rawDump(cur)}}
	prevKey := []byte(nil)
	agree := func(step uint64, what string, key []byte, old, want uint64, ok, present bool) {
		if ok != present || old != want {
			t.Fatalf("step %d: %s(%q) = %d,%v; model had %d,%v", step, what, key, old, ok, want, present)
		}
	}

	for step := uint64(1); len(h.data) > 0 && step <= 150; step++ {
		op := h.byte() % 8
		key := h.key()
		switch {
		case op <= 2:
			want, present := model[string(key)]
			nu, old, updated := cur.CowInsert(key, step)
			agree(step, "CowInsert", key, old, want, updated, present)
			old, updated = live.Insert(key, step)
			agree(step, "Insert", key, old, want, updated, present)
			model[string(key)] = step
			cur = nu
		case op <= 4:
			if op == 4 && len(model) > 0 { // a key that is there
				keys := sortedKeys(model)
				key = []byte(keys[int(h.byte())%len(keys)])
			}
			want, present := model[string(key)]
			nu, old, ok := cur.CowDelete(key)
			agree(step, "CowDelete", key, old, want, ok, present)
			if !ok && nu != cur {
				t.Fatalf("step %d: CowDelete of absent %q made a new tree", step, key)
			}
			old, ok = live.Delete(key)
			agree(step, "Delete", key, old, want, ok, present)
			delete(model, string(key))
			cur = nu
		default:
			b := New().BeginBatch()
			for _, k := range sortedKeys(model) {
				b.Insert([]byte(k), model[k])
			}
			for n := 1 + int(h.byte())%12; n > 0; n-- {
				want, present := model[string(key)]
				old, updated := b.Insert(key, step)
				agree(step, "Batch.Insert", key, old, want, updated, present)
				nu, old, updated := cur.CowInsert(key, step)
				agree(step, "CowInsert", key, old, want, updated, present)
				model[string(key)] = step
				cur = nu
				key = h.key()
			}
			b.Publish(&live)
		}

		keys := sortedKeys(model)
		_, present := model[string(key)]
		lo, hi := prevKey, key
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		prevKey = key
		// The Root is checked through a Tree over its nodes: the same
		// walks as Root's, and checkShape's count against the model.
		for _, tr := range []*Tree{cur, {root: live.p.Load(), size: len(keys)}} {
			checkShape(t, tr)
			if tr.Len() != len(keys) {
				t.Fatalf("step %d: Len = %d, model has %d", step, tr.Len(), len(keys))
			}
			i := 0
			tr.Walk(nil, nil, false, func(k []byte, v uint64) bool {
				if i >= len(keys) || string(k) != keys[i] || v != model[keys[i]] {
					t.Fatalf("step %d: Ascend record %d is %q=%d", step, i, k, v)
				}
				if got, ok := tr.Get(k); !ok || got != v {
					t.Fatalf("step %d: Get(%q) = %d,%v, want %d", step, k, got, ok, v)
				}
				i++
				return true
			})
			if i != len(keys) {
				t.Fatalf("step %d: Ascend visited %d of %d", step, i, len(keys))
			}
			if _, ok := tr.Get(key); ok != present {
				t.Fatalf("step %d: Get(%q) found = %v", step, key, ok)
			}
			checkRange(t, tr, keys, lo, hi)
			checkRange(t, tr, keys, hi, nil)
			checkRange(t, tr, keys, nil, lo)
		}

		// Prefetch walks the step's key and its near misses down every
		// copied tree, and every key's down both current ones: it must
		// find what Get finds, and (checked next) change no bit anywhere.
		var roots []*Root
		var probes [][]byte
		var want []uint64
		probe := func(r *Root, k []byte) {
			for _, p := range nearMisses(k) {
				v, _ := r.Get(p)
				roots, probes, want = append(roots, r), append(probes, p), append(want, v)
			}
		}
		for _, s := range snaps {
			probe(rootOf(s.tree), key)
		}
		for _, k := range keys {
			probe(rootOf(cur), []byte(k))
			probe(&live, []byte(k))
		}
		got := make([]uint64, len(probes))
		Prefetch(roots, probes, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: Prefetch of %d probes: %q = %d, Get = %d", step, len(probes), probes[i], got[i], want[i])
			}
		}

		for i, s := range snaps {
			if !bytes.Equal(rawDump(s.tree), s.dump) {
				t.Fatalf("step %d wrote to snapshot %d, made earlier", step, i)
			}
		}
		if cur != snaps[len(snaps)-1].tree {
			snaps = append(snaps, snapshot{cur, rawDump(cur)})
		}
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkRange compares both range scans of [start, end) with keys, the
// model's sorted key list.
func checkRange(t *testing.T, tr *Tree, keys []string, start, end []byte) {
	t.Helper()
	var want []string
	for _, k := range keys {
		if (start == nil || k >= string(start)) && (end == nil || k < string(end)) {
			want = append(want, k)
		}
	}
	i := 0
	finished := tr.Walk(start, end, false, func(k []byte, _ uint64) bool {
		if i >= len(want) || string(k) != want[i] {
			t.Fatalf("ascending Walk[%q, %q) record %d is %q, want %q", start, end, i, k, want)
		}
		i++
		return true
	})
	j := len(want)
	finished = tr.Walk(start, end, true, func(k []byte, _ uint64) bool {
		if j--; j < 0 || string(k) != want[j] {
			t.Fatalf("descending Walk[%q, %q) record %d is %q, want %q", start, end, j, k, want)
		}
		return true
	}) && finished
	if i != len(want) || j != 0 || !finished {
		t.Fatalf("range [%q, %q): ascending saw %d, descending %d of %d; ran to the end: %v",
			start, end, i, len(want)-j, len(want), finished)
	}
}
