package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// crashHarness drives one operation into an injected crash at persist
// boundary `fail`, recovers a new HART from the durable image, and returns
// it. ok=false means the operation completed before reaching the boundary
// (the sweep is done).
func crashHarness(t *testing.T, fail int64, setup func(h *HART), op func(h *HART)) (*HART, bool) {
	t.Helper()
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	setup(h)
	h.Arena().FailAfterPersists(fail)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, isCrash := r.(pmem.CrashError); !isCrash {
					panic(r)
				}
				crashed = true
			}
		}()
		op(h)
	}()
	h.Arena().DisarmCrash()
	if !crashed {
		return nil, false
	}
	img, err := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(img, Options{})
	if err != nil {
		t.Fatalf("fail=%d: recovery failed: %v", fail, err)
	}
	return h2, true
}

// runToCrash arms a crash at the fail-th persist from now, runs op and
// reports whether the crash fired and at which persist site; any other
// panic is passed on. The store is left as the crash left it.
func runToCrash(h *HART, fail int64, op func()) (site string, crashed bool) {
	h.Arena().FailAfterPersists(fail)
	defer h.Arena().DisarmCrash()
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(pmem.CrashError)
			if !ok {
				panic(r)
			}
			site, crashed = ce.Site, true
		}
	}()
	op()
	return "", false
}

// sameStripePrefixes returns n two-byte directory prefixes — n shards —
// that all map to one allocator stripe: writers under them share no shard
// lock, only the stripe's slot lists.
func sameStripePrefixes(t *testing.T, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for a := byte('a'); a <= 'z'; a++ {
		for b := byte('a'); b <= 'z'; b++ {
			if p := []byte{a, b}; epalloc.StripeFor(p) == 0 {
				if out = append(out, p); len(out) == n {
					return out
				}
			}
		}
	}
	t.Fatalf("found only %d of %d prefixes on stripe 0", len(out), n)
	return nil
}

// TestCrashDuringInsertEveryPersist verifies Algorithm 1's failure
// atomicity: at every persist boundary of an insert, recovery yields
// either "key absent" (and no leak) or "key present with the new value".
// Pre-existing records are never damaged. It sweeps both leaf classes:
// "victim" takes a 24-byte leaf, the 20-byte victim a 40-byte one.
func TestCrashDuringInsertEveryPersist(t *testing.T) {
	setup := func(h *HART) {
		for i := 0; i < 10; i++ {
			if err := h.Put([]byte(fmt.Sprintf("pre%03d", i)), []byte("stable")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One sweep per class and shape: a value the leaf holds, a value in an
	// object.
	for _, c := range []struct{ victim, vnew string }{
		{"victim", "vnew"}, {"victim", "vnew-in-object"},
		{"victim-in-a-40B-leaf", "vnew"}, {"victim-in-a-40B-leaf", "vnew-in-object"},
	} {
		victim, vnew := c.victim, c.vnew
		points := 0
		for fail := int64(0); ; fail++ {
			h2, crashed := crashHarness(t, fail, setup, func(h *HART) {
				if err := h.Put([]byte(victim), []byte(vnew)); err != nil {
					t.Fatal(err)
				}
			})
			if !crashed {
				break
			}
			points++
			for i := 0; i < 10; i++ {
				got, ok := h2.Get([]byte(fmt.Sprintf("pre%03d", i)))
				if !ok || string(got) != "stable" {
					t.Fatalf("%s %q fail=%d: pre-existing record damaged: (%q,%v)", victim, vnew, fail, got, ok)
				}
			}
			if got, ok := h2.Get([]byte(victim)); ok && string(got) != vnew {
				t.Fatalf("%s %q fail=%d: torn insert visible: %q", victim, vnew, fail, got)
			}
			if err := h2.Check(); err != nil {
				t.Fatalf("%s %q fail=%d: fsck after insert crash: %v", victim, vnew, fail, err)
			}
			// The index must remain fully writable; the in-limbo leaf slot
			// is among the first to be reused.
			for i := 0; i < 60; i++ {
				if err := h2.Put([]byte(fmt.Sprintf("post%03d", i)), []byte("p")); err != nil {
					t.Fatalf("%s %q fail=%d: post-crash put: %v", victim, vnew, fail, err)
				}
			}
			if err := h2.Check(); err != nil {
				t.Fatalf("%s %q fail=%d: fsck after refill: %v", victim, vnew, fail, err)
			}
		}
		if points < 5 {
			t.Fatalf("insert of %s %q exercised only %d crash points; expected several persists", victim, vnew, points)
		}
	}
}

// updateShapes lists one update per pair of value shapes, with the fewest
// persists its protocol issues: the old and the new value each either in
// the leaf (up to 8 bytes) or in a value object.
var updateShapes = []struct {
	name, old, new string
	persists       int
}{
	{"inline, same length", "oldval", "newval", 1},
	{"inline, length change", "oldval12", "new", 3},
	{"inline to object", "oldval", "newval-in-object", 5},
	{"object to inline", "oldval-in-object", "newval", 4},
	{"object to object", "oldval-in-object", "newval-in-object", 6},
}

// TestCrashDuringUpdateEveryPersist verifies Algorithm 3 and the one-store
// inline update: after a crash at any persist boundary of an update,
// whatever shapes it goes between, recovery leaves the key mapped to
// either the old or the new value, with no leak and no torn state.
//
// Each pair of shapes is swept in both leaf classes: "upkey" has a 24-byte
// leaf, the 23-byte key a 40-byte one.
func TestCrashDuringUpdateEveryPersist(t *testing.T) {
	for _, upkey := range []string{"upkey", "upkey-in-a-40-byte-leaf"} {
		for _, c := range updateShapes {
			crashUpdateCase(t, upkey, c.name, c.old, c.new, c.persists)
		}
	}
}

// crashUpdateCase is one TestCrashDuringUpdateEveryPersist sweep: the
// update of upkey from one value to another, which issues at least
// persists persists.
func crashUpdateCase(t *testing.T, upkey, name, from, to string, persists int) {
	t.Helper()
	name = fmt.Sprintf("%s (%s)", name, upkey)
	setup := func(h *HART) {
		if err := h.Put([]byte(upkey), []byte(from)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := h.Put([]byte(fmt.Sprintf("other%d", i)), []byte("keep")); err != nil {
				t.Fatal(err)
			}
		}
	}
	points := 0
	for fail := int64(0); ; fail++ {
		h2, crashed := crashHarness(t, fail, setup, func(h *HART) {
			if err := h.Update([]byte(upkey), []byte(to)); err != nil {
				t.Fatal(err)
			}
		})
		if !crashed {
			break
		}
		points++
		got, ok := h2.Get([]byte(upkey))
		if !ok {
			t.Fatalf("%s fail=%d: key vanished during update", name, fail)
		}
		if s := string(got); s != from && s != to {
			t.Fatalf("%s fail=%d: torn update value %q", name, fail, s)
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("%s fail=%d: fsck after update crash: %v", name, fail, err)
		}
		// Updating again post-recovery must work and converge.
		if err := h2.Update([]byte(upkey), []byte("final!")); err != nil {
			t.Fatalf("%s fail=%d: post-crash update: %v", name, fail, err)
		}
		if got, _ := h2.Get([]byte(upkey)); string(got) != "final!" {
			t.Fatalf("%s fail=%d: post-crash update lost: %q", name, fail, got)
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("%s fail=%d: fsck after post-crash update: %v", name, fail, err)
		}
	}
	if points < persists {
		t.Fatalf("%s: update exercised only %d crash points, want at least %d", name, points, persists)
	}
}

// TestCrashDuringDeleteEveryPersist verifies Algorithm 5: a crash during
// deletion leaves the key either present with its value or fully absent;
// a half-deleted record (leaf bit cleared, value bit still set) must be
// cleaned up by recovery — no leak — and the dead slot, its old word 0 in
// place, must take a new record.
func TestCrashDuringDeleteEveryPersist(t *testing.T) {
	// One sweep per shape and leaf class ("del%03d" keys take 24-byte
	// leaves, the 21-byte ones 40-byte leaves). Deleting one of several
	// records in shared chunks performs exactly one persist for a record
	// the leaf holds whole (leaf bit) and two when its value is an object
	// (leaf bit, value bit); every boundary must have been exercised.
	for _, c := range []struct {
		key, dv  string
		persists int
	}{
		{"del%03d", "dv", 1}, {"del%03d", "dv-in-an-object", 2},
		{"del-in-a-40B-leaf%03d", "dv", 1}, {"del-in-a-40B-leaf%03d", "dv-in-an-object", 2},
	} {
		dv, persists := c.dv, c.persists
		key := func(i int) []byte { return []byte(fmt.Sprintf(c.key, i)) }
		setup := func(h *HART) {
			for i := 0; i < 8; i++ {
				if err := h.Put(key(i), []byte(dv)); err != nil {
					t.Fatal(err)
				}
			}
		}
		points := 0
		for fail := int64(0); ; fail++ {
			h2, crashed := crashHarness(t, fail, setup, func(h *HART) {
				if err := h.Delete(key(3)); err != nil {
					t.Fatal(err)
				}
			})
			if !crashed {
				break
			}
			points++
			if got, ok := h2.Get(key(3)); ok && string(got) != dv {
				t.Fatalf("%s %q fail=%d: half-deleted key visible with value %q", c.key, dv, fail, got)
			}
			for i := 0; i < 8; i++ {
				if i == 3 {
					continue
				}
				if got, ok := h2.Get(key(i)); !ok || string(got) != dv {
					t.Fatalf("%s %q fail=%d: sibling %d damaged", c.key, dv, fail, i)
				}
			}
			if err := h2.Check(); err != nil {
				t.Fatalf("%s %q fail=%d: fsck after delete crash: %v", c.key, dv, fail, err)
			}
			// Fill enough records to force reuse of the victim slot: same
			// shard, so same stripe, and same leaf class.
			for i := 0; i < 60; i++ {
				if err := h2.Put(key(100+i), []byte("r")); err != nil {
					t.Fatalf("%s %q fail=%d: refill: %v", c.key, dv, fail, err)
				}
			}
			if err := h2.Check(); err != nil {
				t.Fatalf("%s %q fail=%d: fsck after refill: %v", c.key, dv, fail, err)
			}
		}
		if points != persists {
			t.Fatalf("delete of %s %q exercised %d crash points, want %d", c.key, dv, points, persists)
		}
	}
}

// TestCrashDuringMixedWorkload crashes a random operation stream at many
// different persist counts and checks global consistency: every committed
// record readable, no leaks, allocator sane.
func TestCrashDuringMixedWorkload(t *testing.T) {
	for _, fail := range []int64{1, 3, 7, 17, 41, 97, 211, 499, 997, 1777} {
		committed := map[string]string{}
		mayExist := map[string]bool{}
		h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		h.Arena().FailAfterPersists(fail)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, isCrash := r.(pmem.CrashError); !isCrash {
						panic(r)
					}
				}
			}()
			seed := uint64(fail) + 1
			for i := 0; ; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				k := fmt.Sprintf("%c%c%04d", 'a'+byte(seed>>8%4), 'a'+byte(seed>>16%4), (seed>>24)%500)
				if seed>>40%3 == 0 {
					k += "-in-a-40B-leaf" // 20 bytes: the long leaf class
				}
				v := mixedValue("v%06d", i)
				// The op below may crash mid-flight: record intent first.
				switch {
				case i%5 == 4:
					mayExist[k] = true // deletion in flight: may or may not survive
					if err := h.Delete([]byte(k)); err == nil {
						delete(committed, k)
					}
					delete(mayExist, k)
				default:
					mayExist[k] = true
					if err := h.Put([]byte(k), []byte(v)); err != nil {
						t.Error(err)
						return
					}
					committed[k] = v
					delete(mayExist, k)
				}
			}
		}()
		h.Arena().DisarmCrash()
		img, err := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Open(img, Options{})
		if err != nil {
			t.Fatalf("fail=%d: recovery: %v", fail, err)
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("fail=%d: fsck: %v", fail, err)
		}
		for k, v := range committed {
			if mayExist[k] {
				continue // the in-flight op targeted this key
			}
			got, ok := h2.Get([]byte(k))
			if !ok || string(got) != v {
				// One subtlety: the crashed op may have been an update of k
				// committed at the tree level... but committed[] was only
				// set after Put returned, so this is a real loss.
				t.Fatalf("fail=%d: committed key %q = (%q,%v), want %q", fail, k, got, ok, v)
			}
		}
	}
}

// TestRecoveryReclaimsStrandedValues crashes an out-of-line insert between
// its value bit and its leaf bit, and a delete between its leaf bit and its
// value bit. Each strands a committed value object that no live leaf
// references, which the orphan sweep reclaims; the dead leaf's stale word 0
// still names it, and is not read. Each image is recovered in every mode:
// the key must be absent, the count exact, and the store leak-free. (A
// failed release strands one at run time: see
// TestDeleteReleaseFailureStillDeletes.)
func TestRecoveryReclaimsStrandedValues(t *testing.T) {
	const key, val = "strand", "value-in-object!"
	cases := []struct {
		name    string
		withKey bool // the key is put before the operation
		site    string
		op      func(h *HART)
	}{
		{"insert crashed before its leaf bit", false, "insert.leaf-bit", func(h *HART) { h.Put([]byte(key), []byte(val)) }},
		{"delete crashed before its value bit", true, "delete.value-bit", func(h *HART) { h.Delete([]byte(key)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Crash at the first persist labelled c.site.
			var img []byte
			for k := int64(0); img == nil; k++ {
				h := newHART(t)
				for i := 0; i < 5; i++ {
					mustPut(t, h, fmt.Sprintf("st%d", i), "bystander-object")
				}
				if c.withKey {
					mustPut(t, h, key, val)
				}
				site, crashed := runToCrash(h, k, func() { c.op(h) })
				if !crashed {
					t.Fatalf("the operation finished without reaching %s", c.site)
				}
				if site != c.site {
					continue
				}
				var err error
				if img, err = h.Arena().DurableImage(); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range recoveryModes {
				h := openImage(t, img, m.opts)
				if n := h.LastRecoveryStats().OrphanValues; n != 1 {
					t.Fatalf("%s: %d orphan values reclaimed, want 1", m.name, n)
				}
				if _, ok := h.Get([]byte(key)); ok {
					t.Fatalf("%s: %q present after recovery", m.name, key)
				}
				if err := h.Check(); err != nil {
					t.Fatalf("%s: fsck after recovery: %v", m.name, err)
				}
			}
		})
	}
}

// TestWritePathBudgets pins what each single-record write costs on a
// store in steady state (chunks linked, slots being reused): the ordered
// persists it issues, by site, the cache lines they flush and the PM loads
// it makes — one row per protocol, which is one per pair of value shapes
// (DESIGN.md §12: in the leaf up to 8 bytes, in a value object above). The
// protocols' recovery arguments are made persist by persist there, and
// persists and PM reads are what the medium charges for, so a change to
// any of these numbers is a change of protocol and must be made on purpose.
//
// A leaf slot starts at one of a line's eight words, and a persisted run
// of the leaf longer than a word flushes one line more where it crosses
// the line's end. So every row runs in both leaf classes with the written
// leaf at each of the eight offsets, and pins the lines at each; the
// persists, sites and reads are the same at all of them.
func TestWritePathBudgets(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each class's records share one directory prefix — one shard, one
	// allocator stripe — and take keys of 5 bytes (leaf24) or 16 (leaf40).
	classes := []struct {
		name string
		key  func(i int) []byte
	}{
		{"leaf24", func(i int) []byte { return []byte(fmt.Sprintf("wp%03d", i)) }},
		{"leaf40", func(i int) []byte { return []byte(fmt.Sprintf("wp%03d-leaf40-key", i)) }},
	}
	// Values by shape. short2 is short's length, so replacing one by the
	// other is the same-length inline update.
	short, short2, eight, five := []byte("v1"), []byte("v2"), []byte("eight-by"), []byte("five!")
	wide, wide2 := []byte("sixteen-bytes-ok"), []byte("now-twelve-b")
	// fill puts records from to n-1, so 56 of them fill the stripe's first
	// leaf chunk and, with values of the 16-byte class, its first value
	// chunk exactly. The pad records, from 800 on, are put before a
	// fixture's own so that those sit pad slots further on in their chunks.
	const padFrom = 800
	fill := func(h *HART, key func(int) []byte, from, n int, v []byte) {
		for i := from; i < n; i++ {
			must(h.Put(key(i), v))
		}
	}
	// steady is the common starting state for records of value v: first
	// chunks full, second chunks partly used and churned so their free
	// slots are reused ones, and one record in the 16-byte class whatever v
	// is, so an update that moves a value out of its leaf finds a linked
	// chunk there.
	steady := func(v []byte) func(*HART, func(int) []byte, int) {
		return func(h *HART, key func(int) []byte, pad int) {
			fill(h, key, padFrom, padFrom+pad, v)
			fill(h, key, 0, 60, v)
			must(h.Put([]byte("wp-wide"), wide))
			for i := 57; i < 60; i++ {
				must(h.Delete(key(i)))
			}
			fill(h, key, 57, 60, v)
		}
	}
	// alone leaves record 56 the only one in the stripe's second chunks,
	// at slot pad.
	alone := func(v []byte) func(*HART, func(int) []byte, int) {
		return func(h *HART, key func(int) []byte, pad int) {
			fill(h, key, 0, 56, v)
			fill(h, key, padFrom, padFrom+pad, v)
			fill(h, key, 56, 57, v)
			for i := padFrom; i < padFrom+pad; i++ {
				must(h.Delete(key(i)))
			}
		}
	}
	put := func(i int, v []byte) func(*HART, func(int) []byte) error {
		return func(h *HART, key func(int) []byte) error { return h.Put(key(i), v) }
	}
	update := func(i int, v []byte) func(*HART, func(int) []byte) error {
		return func(h *HART, key func(int) []byte) error { return h.Update(key(i), v) }
	}
	del := func(i int) func(*HART, func(int) []byte) error {
		return func(h *HART, key func(int) []byte) error { return h.Delete(key(i)) }
	}
	// Lines by the written leaf's offset in its line, a word at a time,
	// for leaf24 and leaf40: flat where every leaf run persisted is one
	// word; the rows that persist a leaf's header run (insert: 10 bytes
	// and the key; a shape change: word 0 and the shape byte, 10 bytes)
	// flush one more line where that run crosses the line's end.
	flat := func(n int64) [2][8]int64 {
		return [2][8]int64{{n, n, n, n, n, n, n, n}, {n, n, n, n, n, n, n, n}}
	}

	// sites spells a persist-site sequence: "step" is one persist labelled
	// op.step, "step*7" seven of them (a chunk recycle's persists carry
	// the label of the step that triggered it).
	sites := func(op string, steps ...string) []string {
		var out []string
		for _, s := range steps {
			n := 1
			if step, times, ok := strings.Cut(s, "*"); ok {
				s = step
				n, _ = strconv.Atoi(times)
			}
			for ; n > 0; n-- {
				out = append(out, op+"."+s)
			}
		}
		return out
	}
	const newRecord = 999 // the record an insert adds
	cases := []struct {
		name   string
		setup  func(h *HART, key func(int) []byte, pad int)
		target int // the record whose leaf the operation writes
		op     func(h *HART, key func(int) []byte) error
		sites  []string
		lines  [2][8]int64
		reads  int64
	}{
		// The record that is one PM object: value in the leaf.
		{
			name:   "inline insert",
			setup:  steady(short),
			target: newRecord,
			op:     put(newRecord, short),
			sites:  sites("insert", "leaf", "leaf-bit"),
			lines:  [2][8]int64{{2, 2, 2, 2, 2, 2, 2, 3}, {2, 2, 2, 2, 2, 3, 3, 3}},
			reads:  0, // the reused leaf slot is written, not read
		},
		{
			name:   "inline update, same length",
			setup:  steady(short),
			target: 58,
			op:     update(58, short2),
			sites:  sites("update", "inline"),
			lines:  flat(1),
			reads:  0, // the ART entry says where the value is and how long
		},
		{
			name:   "inline delete",
			setup:  steady(short),
			target: 58,
			op:     del(58),
			sites:  sites("delete", "leaf-bit"),
			lines:  flat(1),
			reads:  0,
		},
		{
			// Alone in its leaf chunk, which the delete empties and
			// recycles under the stripe's recycle log.
			name:   "inline delete that empties the chunk",
			setup:  alone(short),
			target: 56,
			op:     del(56),
			sites:  sites("delete", "leaf-bit*8"),
			lines:  flat(8),
			reads:  0, // the recycle follows the chunk's DRAM links
		},
		// Every change of shape is the logged update, less the steps of the
		// side that has no value object.
		{
			name:   "inline update, 8 to 5 B",
			setup:  func(h *HART, key func(int) []byte, pad int) { steady(short)(h, key, pad); must(h.Put(key(58), eight)) },
			target: 58,
			op:     update(58, five),
			sites:  sites("update", "log", "swing", "reclaim"),
			lines:  [2][8]int64{{3, 3, 3, 3, 3, 3, 3, 4}, {3, 3, 3, 3, 3, 3, 3, 4}},
			reads:  1, // the header word the shape byte is set in
		},
		{
			name:   "logged update, class-changing 8 to 16 B",
			setup:  func(h *HART, key func(int) []byte, pad int) { steady(short)(h, key, pad); must(h.Put(key(58), eight)) },
			target: 58,
			op:     update(58, wide),
			sites:  sites("update", "value", "log", "value-bit", "swing", "reclaim"),
			lines:  [2][8]int64{{5, 5, 5, 5, 5, 5, 5, 6}, {5, 5, 5, 5, 5, 5, 5, 6}},
			reads:  1,
		},
		{
			name:   "logged update, 16 B to inline",
			setup:  steady(wide),
			target: 58,
			op:     update(58, eight),
			sites:  sites("update", "log", "swing", "release-old", "reclaim"),
			lines:  [2][8]int64{{4, 4, 4, 4, 4, 4, 4, 5}, {4, 4, 4, 4, 4, 4, 4, 5}},
			reads:  2, // word 0 for the old value's address, then the header word
		},
		// The record that is two: value of 9 bytes and up in an object.
		{
			name:   "insert",
			setup:  steady(wide),
			target: newRecord,
			op:     put(newRecord, wide),
			sites:  sites("insert", "value", "leaf", "value-bit", "leaf-bit"),
			lines:  [2][8]int64{{4, 4, 4, 4, 4, 4, 4, 5}, {4, 4, 4, 4, 4, 5, 5, 5}},
			reads:  0, // the reused leaf slot is written, not read
		},
		{
			name:   "logged update",
			setup:  steady(wide),
			target: 58,
			op:     update(58, wide2),
			sites:  sites("update", "value", "log", "value-bit", "swing", "release-old", "reclaim"),
			lines:  flat(6),
			reads:  1, // the leaf's word 0
		},
		{
			name:   "delete",
			setup:  steady(wide),
			target: 58,
			op:     del(58),
			sites:  sites("delete", "leaf-bit", "value-bit"),
			lines:  flat(2),
			reads:  1,
		},
		{
			// Record 56 is alone in both classes' second chunks: deleting
			// it empties and recycles first the leaf chunk, then the value
			// chunk, each inside its Release — seven persists each under
			// the stripe's recycle log.
			name:   "delete that empties both chunks",
			setup:  alone(wide),
			target: 56,
			op:     del(56),
			sites:  sites("delete", "leaf-bit*8", "value-bit*8"),
			lines:  flat(16),
			reads:  1, // word 0; the recycles follow DRAM links
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{ArenaSize: 16 << 20, Tracking: true}
			for ci, class := range classes {
				// One pad more moves the written leaf one slot on; a line
				// holds eight word offsets, so eight pads see them all
				// unless the allocator skips, and 16 are allowed for that.
				var seen [8]bool
				for pad, nseen := 0, 0; nseen < 8; pad++ {
					if pad == 16 {
						t.Fatalf("%s: the written leaf met only offsets %v of a line in 16 fixtures", class.name, seen)
					}
					h, err := New(opts)
					must(err)
					c.setup(h, class.key, pad)
					leaf := leafAt(h, class.key(c.target))
					before := h.Arena().Stats()
					must(c.op(h, class.key))
					after := h.Arena().Stats()
					if leaf.IsNil() {
						leaf = leafAt(h, class.key(c.target))
					}
					at := fmt.Sprintf("%s, leaf at line offset %d", class.name, leaf%64)
					if got := after.Persists - before.Persists; got != int64(len(c.sites)) {
						t.Errorf("%s: %d persists, want %d", at, got, len(c.sites))
					}
					if got, want := after.PersistedLines-before.PersistedLines, c.lines[ci][leaf%64/8]; got != want {
						t.Errorf("%s: %d persisted lines, want %d", at, got, want)
					}
					if got := after.Reads - before.Reads; got != c.reads {
						t.Errorf("%s: %d PM reads, want %d", at, got, c.reads)
					}
					must(h.Check())
					if !seen[leaf%64/8] {
						seen[leaf%64/8] = true
						nseen++
					}
				}

				// The sites, one crash per boundary: the label current when
				// the k-th persist of the operation is about to be issued.
				var got []string
				for k := int64(0); ; k++ {
					h, err := New(opts)
					must(err)
					c.setup(h, class.key, 0)
					site, crashed := runToCrash(h, k, func() { must(c.op(h, class.key)) })
					if !crashed {
						break
					}
					got = append(got, site)
				}
				if fmt.Sprint(got) != fmt.Sprint(c.sites) {
					t.Errorf("%s: persist sites\n got  %v\n want %v", class.name, got, c.sites)
				}
			}
		})
	}
}

// leafAt returns the PM leaf the index holds for key, Nil if none.
func leafAt(h *HART, key []byte) pmem.Ptr {
	hashKey, artKey := h.splitKey(key)
	s, ok := h.dir.Load().Get(hashKey)
	if !ok {
		return pmem.Nil
	}
	w, ok := s.root.Get(artKey)
	if !ok {
		return pmem.Nil
	}
	return leafRef(w).ptr()
}

// TestCrashDuringDeleteRecycleEveryPersist sweeps the delete path where
// the deleted leaf empties its 56-object chunk, so Recycle's persistent
// recycle-log unlink runs (Algorithm 6) — a path the single-record delete
// sweep above never reaches. Every boundary must leave each victim key
// atomically present-or-absent, every survivor intact, and the allocator
// lists well-formed.
func TestCrashDuringDeleteRecycleEveryPersist(t *testing.T) {
	const nkeys = 56 + 8 // two leaf chunks; emptying the newer one unlinks it
	key := func(i int) []byte { return []byte(fmt.Sprintf("rk%04d", i)) }
	setup := func(h *HART) {
		for i := 0; i < nkeys; i++ {
			if err := h.Put(key(i), []byte("dv")); err != nil {
				t.Fatal(err)
			}
		}
	}
	points := 0
	for fail := int64(0); ; fail++ {
		h2, crashed := crashHarness(t, fail, setup, func(h *HART) {
			// Deleting the tail empties the second leaf chunk (and the
			// second chunk of the matching value class) mid-sequence.
			for i := nkeys - 1; i >= 40; i-- {
				if err := h.Delete(key(i)); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !crashed {
			break
		}
		points++
		for i := 0; i < nkeys; i++ {
			got, ok := h2.Get(key(i))
			if ok && string(got) != "dv" {
				t.Fatalf("fail=%d: key %q torn: %q", fail, key(i), got)
			}
			if i < 40 && !ok {
				t.Fatalf("fail=%d: survivor %q lost", fail, key(i))
			}
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("fail=%d: fsck after recycle crash: %v", fail, err)
		}
		// Refill through the recycled space.
		for i := 0; i < 70; i++ {
			if err := h2.Put([]byte(fmt.Sprintf("refill%04d", i)), []byte("r")); err != nil {
				t.Fatalf("fail=%d: refill: %v", fail, err)
			}
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("fail=%d: fsck after refill: %v", fail, err)
		}
	}
	if points < 20 {
		t.Fatalf("recycle delete sweep exercised only %d crash points", points)
	}
}

// TestCrashDuringRecoveryEveryPersist closes the re-entrancy gap: the
// first crash lands at every boundary of an update (the op whose recovery
// does the most PM writes: completing the ulog — for an update that
// changes the record's shape, rewriting two words of its leaf — resetting
// it, sweeping orphan values), then recovery itself is crashed at every one
// of its own persist boundaries, and recovery-after-recovery must still
// produce the old or new value with a clean fsck.
//
// One more setup puts the updated record's old value alone in a value
// chunk that is not its stripe's only one and moves the value into the
// leaf, so the update — or the log's replay — empties and recycles that
// chunk. A recovery crashed after the replay's recycle and before the log
// is reset replays the log again, and that second replay must not offer
// the recycled chunk for allocation: it would be handed out twice, which
// the 210 out-of-line records put on the stripe afterwards would show.
func TestCrashDuringRecoveryEveryPersist(t *testing.T) {
	type recoveryCase struct {
		name   string
		setup  func(h *HART)
		update func(h *HART)
		verify func(h *HART, at string) // after recovery after a recovery crash
	}
	var cases []recoveryCase
	for _, c := range updateShapes {
		cases = append(cases, recoveryCase{
			name: c.name,
			setup: func(h *HART) {
				if err := h.Put([]byte("upkey"), []byte(c.old)); err != nil {
					t.Fatal(err)
				}
			},
			update: func(h *HART) {
				if err := h.Update([]byte("upkey"), []byte(c.new)); err != nil {
					t.Fatal(err)
				}
			},
			verify: func(h *HART, at string) {
				got, ok := h.Get([]byte("upkey"))
				if !ok {
					t.Fatalf("%s: key vanished", at)
				}
				if s := string(got); s != c.old && s != c.new {
					t.Fatalf("%s: torn value %q", at, s)
				}
			},
		})
	}
	// Keys of one directory prefix share a shard and an allocator stripe;
	// every value is 16 bytes, one value object.
	rqKey := func(i int) []byte { return []byte(fmt.Sprintf("rq%04d", i)) }
	rqVal := func(i int) []byte { return []byte(fmt.Sprintf("out-of-line-%04d", i)) }
	const alone, inline, refill = epalloc.ObjectsPerChunk, "inline!!", 210
	cases = append(cases, recoveryCase{
		name: "object alone in a chunk to inline",
		setup: func(h *HART) {
			for i := 0; i <= alone; i++ {
				if err := h.Put(rqKey(i), rqVal(i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		update: func(h *HART) {
			if err := h.Update(rqKey(alone), []byte(inline)); err != nil {
				t.Fatal(err)
			}
		},
		verify: func(h *HART, at string) {
			n := alone + 1 + refill
			for i := alone + 1; i < n; i++ {
				if err := h.Put(rqKey(i), rqVal(i)); err != nil {
					t.Fatalf("%s: refill: %v", at, err)
				}
			}
			for i := 0; i < n; i++ {
				got, ok := h.Get(rqKey(i))
				if i == alone && ok && string(got) == inline {
					continue
				}
				if !ok || string(got) != string(rqVal(i)) {
					t.Fatalf("%s: %s reads %q (found %v), want %q", at, rqKey(i), got, ok, rqVal(i))
				}
			}
		},
	})
	for _, c := range cases {
		for fail := int64(0); ; fail++ {
			h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
			if err != nil {
				t.Fatal(err)
			}
			c.setup(h)
			_, crashed := runToCrash(h, fail, func() { c.update(h) })
			if !crashed {
				break
			}
			img, err := h.Arena().DurableImage()
			if err != nil {
				t.Fatal(err)
			}
			for rfail := int64(0); ; rfail++ {
				at := fmt.Sprintf("%s fail=%d rfail=%d", c.name, fail, rfail)
				if rfail > 256 {
					t.Fatalf("%s fail=%d: recovery persisted more than 256 times", c.name, fail)
				}
				ar, err := pmem.Attach(append([]byte(nil), img...), pmem.Config{Tracking: true})
				if err != nil {
					t.Fatal(err)
				}
				ar.FailAfterPersists(rfail)
				recrashed := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(pmem.CrashError); !ok {
								panic(r)
							}
							recrashed = true
						}
					}()
					_, err = Open(ar, Options{})
				}()
				var h2 *HART
				if recrashed {
					img2, cerr := ar.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
					if cerr != nil {
						t.Fatal(cerr)
					}
					if h2, err = Open(img2, Options{}); err != nil {
						t.Fatalf("%s: recovery after recovery crash: %v", at, err)
					}
				} else if err != nil {
					t.Fatalf("%s: open: %v", at, err)
				} else {
					// Recovery finished before the second injection: sweep done.
					break
				}
				if err := h2.Check(); err != nil {
					t.Fatalf("%s: fsck after recovery: %v", at, err)
				}
				c.verify(h2, at)
				if err := h2.Check(); err != nil {
					t.Fatalf("%s: fsck: %v", at, err)
				}
			}
		}
	}
}

// TestUpdateLogReplaySparesReusedSlot is the regression test for the old
// value's hand-back: a logged update crashes at its last persist (the
// micro-log reclaim), so the log is still armed on PM while the old
// value's bit is already clear; before the crash image is taken, a writer
// in a sibling shard on the same allocator stripe inserts a record. If the
// old value's slot was allocatable by then, the sibling's value sits in it
// and recovery's replay of the armed log ("clear the old value's bit")
// frees the sibling's live value.
func TestUpdateLogReplaySparesReusedSlot(t *testing.T) {
	prefixes := sameStripePrefixes(t, 2)
	victim, sibling := append(prefixes[0], "-victim"...), append(prefixes[1], "-sibling"...)

	const newVal = "v2-in-an-object"
	// Crash the update at each boundary in turn, on a fresh store,
	// until the one at the log reclaim is found.
	var h *HART
	for k := int64(0); ; k++ {
		var err error
		if h, err = New(Options{ArenaSize: 16 << 20, Tracking: true}); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(victim, []byte("v1-in-an-object")); err != nil {
			t.Fatal(err)
		}
		site, crashed := runToCrash(h, k, func() {
			if err := h.Update(victim, []byte(newVal)); err != nil {
				t.Fatal(err)
			}
		})
		if !crashed {
			t.Fatal("update completed without reaching update.reclaim")
		}
		if site == "update.reclaim" {
			break
		}
	}

	// The crashed writer is gone mid-operation; the sibling shard's
	// writer carries on until the power actually fails.
	if err := h.Put(sibling, []byte("sib-in-an-object")); err != nil {
		t.Fatal(err)
	}
	img, err := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := h2.LastRecoveryStats().CompletedULogs; n != 1 {
		t.Fatalf("recovery completed %d update logs, want the 1 left armed", n)
	}
	if err := h2.Check(); err != nil {
		t.Fatalf("fsck after replay: %v", err)
	}
	// A freed-but-referenced slot shows once it is handed out again.
	for i := 0; i < 3; i++ {
		if err := h2.Put([]byte(fmt.Sprintf("%s-more%d", prefixes[1], i)), []byte("other-in-object")); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := h2.Get(sibling); !ok || string(v) != "sib-in-an-object" {
		t.Fatalf("sibling's record = (%q, %v) after replay, want \"sib-in-an-object\"", v, ok)
	}
	if v, ok := h2.Get(victim); !ok || string(v) != newVal {
		t.Fatalf("replayed update = (%q, %v), want %q", v, ok, newVal)
	}
	if err := h2.Check(); err != nil {
		t.Fatal(err)
	}
}

// recoveryModes is every way Open rebuilds the index: the four modes share
// classifyLeaf and the orphan sweep, and a test of what recovery may trust
// runs under each.
var recoveryModes = []struct {
	name string
	opts Options
}{
	{"serial", Options{}},
	{"parallel", Options{RecoveryWorkers: 4}},
	{"lazy", Options{LazyRecovery: true}},
	{"lazy-parallel", Options{LazyRecovery: true, RecoveryWorkers: 4}},
}

// TestDeadSlotWordIsNeverTrusted pins the rule word 0 now lives under: it
// holds user bytes, so a dead slot's word 0 can spell anything. The torn
// image is built by hand — an inline insert whose leaf persist reached the
// line holding word 0 but not the one holding the header, so the new value
// sits beside the previous occupant's shape byte of 0, "value object" — with
// the value's bytes spelling, in turn, the address of a live leaf and that
// of a live value object, bare and as the packed word the live leaf itself
// holds. Following such a word as a pointer (BitIsSet and Release accept
// any slot base of any class) clears the bit of the live leaf or of the
// live value. Every recovery mode must leave it unread and reclaim
// nothing: every record present, fsck clean, and — the dead slot being the
// next one allocated — still so after the slot is reused.
func TestDeadSlotWordIsNeverTrusted(t *testing.T) {
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{
		"tn-inline": "in-leaf",
		"tn-object": "in-a-value-object"[:16],
		"tn-other":  "bystander",
	}
	for k, v := range ref {
		mustPut(t, h, k, v)
	}
	// The slot a torn insert dies in: last held a record with a value
	// object (stale shape byte 0), deleted since.
	mustPut(t, h, "tn-victim", "victim-in-object")
	dead, _ := h.GetLeaf([]byte("tn-victim"))
	if err := h.Delete([]byte("tn-victim")); err != nil {
		t.Fatal(err)
	}
	liveLeaf, _ := h.GetLeaf([]byte("tn-inline"))
	objLeaf, _ := h.GetLeaf([]byte("tn-object"))
	liveWord := h.arena.Read8(objLeaf + lfWord0)
	liveVal, _ := unpackValue(liveWord)
	if c, err := h.alloc.ClassOf(liveVal); err != nil || c != classValue16 {
		t.Fatalf("fixture: %d is not a value object (class %v, err %v)", liveVal, c, err)
	}

	for _, torn := range []struct {
		name  string
		word0 uint64
	}{
		{"address of a live leaf", uint64(liveLeaf)},
		{"address of a live value object", uint64(liveVal)},
		{"packed word of a live value object", liveWord},
	} {
		h.arena.Write8(dead+lfWord0, torn.word0)
		h.arena.Persist(dead+lfWord0, 8)
		img, err := h.Arena().DurableImage()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range recoveryModes {
			name := torn.name + ", " + m.name
			h2 := openImage(t, img, m.opts)
			if n := h2.LastRecoveryStats().OrphanValues; n != 0 {
				t.Fatalf("%s: recovery reclaimed %d orphan values, want none", name, n)
			}
			assertContents(t, h2, ref, nil, name)
			if err := h2.Check(); err != nil {
				t.Fatalf("%s: fsck after recovery: %v", name, err)
			}
			// Reuse the slot, under the deleted record's shard and stripe.
			mustPut(t, h2, "tn-victim", "again")
			if leaf, _ := h2.GetLeaf([]byte("tn-victim")); leaf != dead {
				t.Fatalf("%s: re-insert took slot %d, not the torn slot %d", name, leaf, dead)
			}
			for k, v := range ref {
				if got, ok := h2.Get([]byte(k)); !ok || string(got) != v {
					t.Fatalf("%s: Get(%q) = (%q, %v) after the slot's reuse, want %q", name, k, got, ok, v)
				}
			}
			if err := h2.Check(); err != nil {
				t.Fatalf("%s: fsck after the slot's reuse: %v", name, err)
			}
		}
	}

	// The same word met at run time, by the allocation that reuses the
	// slot: the insert overwrites it without reading it.
	h.arena.Write8(dead+lfWord0, uint64(liveLeaf))
	h.arena.Persist(dead+lfWord0, 8)
	mustPut(t, h, "tn-victim", "again")
	ref["tn-victim"] = "again"
	assertContents(t, h, ref, nil, "run-time reuse")
	if err := h.Check(); err != nil {
		t.Fatalf("fsck after run-time reuse: %v", err)
	}
}

// TestTornShapeSwingReplays covers the one place a live leaf's word 0 and
// shape byte are rewritten together. They share a cache line in seven
// slots of eight and straddle two in the eighth, in either leaf class, so
// a crash between the swing's stores and its persist can leave either word
// new beside the other old — a state no persist-boundary sweep produces,
// because the simulated medium drops every unpersisted line. Both halves
// are built by hand here, for every change of shape and both leaf classes,
// on a slot whose header does straddle; the armed update log must put the
// record right in every recovery mode.
func TestTornShapeSwingReplays(t *testing.T) {
	for _, class := range []struct {
		fill, key string // key formats: fill takes the filler's index
		slot      pmem.Ptr
	}{
		{"sw-fill%d", "sw-key", leaf24Size},
		{"sw-fill-long-key-%d", "sw-key-of-the-long-class", leaf40Size},
	} {
		for _, c := range updateShapes {
			if len(c.old) == len(c.new) {
				continue // no change of shape: the swing is one word
			}
			tornSwingCase(t, class.fill, class.key, class.slot, c.name, c.old, c.new)
		}
	}
}

// tornSwingCase is one TestTornShapeSwingReplays case: the update of key
// from one value to another, in a leaf class whose slots are slot bytes
// apart (the fillers' keys, made by fill, are of the same class).
func tornSwingCase(t *testing.T, fill, key string, slot pmem.Ptr, name, from, to string) {
	t.Helper()
	name = fmt.Sprintf("%s, %d-byte leaf", name, slot)
	// fixture puts key in a slot whose header word opens a cache line: same
	// shard, same stripe, same class, so consecutive slots of one chunk,
	// filled until the next one is such a slot.
	ref := map[string]string{key: to}
	fixture := func() (*HART, pmem.Ptr) {
		h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			k := fmt.Sprintf(fill, i)
			mustPut(t, h, k, "filler")
			ref[k] = "filler"
			if last, _ := h.GetLeaf([]byte(k)); (last+slot+lfKeyLen)%64 == 0 {
				break
			}
		}
		mustPut(t, h, key, from)
		leaf, _ := h.GetLeaf([]byte(key))
		if (leaf+lfKeyLen)%64 != 0 {
			t.Fatalf("%s: fixture: leaf %d keeps word 0 and its header word on one line", name, leaf)
		}
		return h, leaf
	}
	// Crash the update at each boundary in turn, on a fresh store, until
	// the one at the swing is found.
	var h *HART
	var leaf pmem.Ptr
	for k := int64(0); ; k++ {
		h, leaf = fixture()
		site, crashed := runToCrash(h, k, func() { mustPut(t, h, key, to) })
		if !crashed {
			t.Fatalf("%s: update completed without reaching update.swing", name)
		}
		if site == "update.swing" {
			break
		}
	}
	durable, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	for _, half := range []pmem.Ptr{lfWord0, lfKeyLen} {
		img := append([]byte(nil), durable...)
		// The line holding this half was evicted before the crash.
		h.arena.ReadAt(leaf+half, img[leaf+half:leaf+half+8])
		for _, m := range recoveryModes {
			name := fmt.Sprintf("%s, new word at +%d, %s", name, half, m.name)
			h2 := openImage(t, img, m.opts)
			if n := h2.LastRecoveryStats().CompletedULogs; n != 1 {
				t.Fatalf("%s: recovery completed %d update logs, want 1", name, n)
			}
			assertContents(t, h2, ref, nil, name)
			if err := h2.Check(); err != nil {
				t.Fatalf("%s: fsck: %v", name, err)
			}
		}
	}
}
