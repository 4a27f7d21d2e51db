package hashdir

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// alphabet62 is the paper's key alphabet: every two-byte prefix of the
// benchmark's keys is a pair over it, 62² = 3 844 directory entries.
const alphabet62 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// pairKeys returns every two-byte key over the alphabet (all 256 byte
// values when it is empty), in order of the first byte.
func pairKeys(alphabet string) [][]byte {
	if alphabet == "" {
		b := make([]byte, 256)
		for i := range b {
			b[i] = byte(i)
		}
		alphabet = string(b)
	}
	keys := make([][]byte, 0, len(alphabet)*len(alphabet))
	for i := 0; i < len(alphabet); i++ {
		for j := 0; j < len(alphabet); j++ {
			keys = append(keys, []byte{alphabet[i], alphabet[j]})
		}
	}
	return keys
}

// createOneByOne adds each key to the lineage the way HART creates a
// shard — clone the current table, put into the clone, publish it — and
// returns the last table and the bytes allocated per creation.
func createOneByOne(tb *Table[int], keys [][]byte) (*Table[int], float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range keys {
		nu := tb.Clone()
		nu.Put(k, i)
		tb = nu
	}
	runtime.ReadMemStats(&after)
	return tb, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(keys))
}

// TestCreationCopiesOneSegment: creating an entry copies the segment
// headers and one segment's slots, not the whole table, so its cost stays
// flat as the directory grows where a whole-table copy grows with it.
func TestCreationCopiesOneSegment(t *testing.T) {
	cases := []struct {
		name  string
		keys  [][]byte
		limit float64
	}{
		{"62x62", pairKeys(alphabet62), 16 << 10},
		{"40000", pairKeys("")[:40000], 64 << 10},
	}
	for _, c := range cases {
		tb, perCreation := createOneByOne(New[int](), c.keys)
		if tb.Len() != len(c.keys) {
			t.Fatalf("%s: Len = %d, want %d", c.name, tb.Len(), len(c.keys))
		}
		if perCreation > c.limit {
			t.Errorf("%s: %.0f B allocated per creation, want <= %.0f", c.name, perCreation, c.limit)
		}
		t.Logf("%s: %.0f B per creation", c.name, perCreation)
	}
}

// TestSegmentSpread: two-byte keys, the directory HART builds at kh = 2,
// spread evenly over the segments. FNV-1a's high bits would not: they
// barely depend on the last byte of a short key.
func TestSegmentSpread(t *testing.T) {
	for _, alphabet := range []string{alphabet62, ""} {
		keys := pairKeys(alphabet)
		tb := New[int]()
		for i, k := range keys {
			tb.Put(k, i)
		}
		mean := float64(len(keys)) / numSegments
		most := 0.0
		for i := range tb.segs {
			n := float64(tb.segs[i].live)
			if n > 2*mean {
				t.Errorf("%d keys: segment %d holds %.0f, more than twice the mean %.1f", len(keys), i, n, mean)
			}
			most = max(most, n)
		}
		t.Logf("%d keys: fullest segment %.0f, mean %.1f, longest probe %d", len(keys), most, mean, tb.Stats().MaxProbe)
	}
}

// TestSnapshotsUnderConcurrentCreation publishes tables the way HART does
// — one writer clones the current snapshot, puts into the clone and swaps
// it in — while readers look up and ask published snapshots for their
// sorted lists, which builds and caches the list and makes the writer
// keep one from then on. Every snapshot a reader loads must be whole.
// Run under -race.
func TestSnapshotsUnderConcurrentCreation(t *testing.T) {
	keys := pairKeys(alphabet62)[:1200]
	var cur atomic.Pointer[Table[int]]
	cur.Store(New[int]())
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				tb := cur.Load()
				n := tb.Len()
				if n > 0 {
					if v, ok := tb.Get(keys[n-1]); !ok || v != n-1 {
						t.Errorf("snapshot of %d entries: Get(%q) = (%d, %v)", n, keys[n-1], v, ok)
						return
					}
				}
				if ks := tb.SortedKeys(); len(ks) != n || !slices.IsSorted(ks) {
					t.Errorf("snapshot of %d entries: sorted list of %d, sorted %v", n, len(ks), slices.IsSorted(ks))
					return
				}
			}
		}()
	}
	for i, k := range keys {
		nu := cur.Load().Clone()
		nu.Put(k, i)
		cur.Store(nu)
	}
	done.Store(true)
	wg.Wait()
}

// TestCloneLineageProperty runs random Put, Delete and Clone sequences —
// mutating originals as well as clones — against a map model per table,
// and checks that every table ever made still equals its own model.
func TestCloneLineageProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := pairKeys(alphabet62)[:1500]
		tables := []*Table[int]{New[int]()}
		models := []map[string]int{{}}
		for step := 1; step <= 4000; step++ {
			// Mostly the newest table, as HART does, but earlier ones too.
			j := len(tables) - 1
			if rng.Intn(4) == 0 {
				j = rng.Intn(len(tables))
			}
			tb, m := tables[j], models[j]
			k := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(100); {
			case r < 4:
				tables = append(tables, tb.Clone())
				models = append(models, maps.Clone(m))
			case r < 8:
				tb.SortedKeys() // build the cache a clone then inherits
			case r < 70:
				_, had := m[string(k)]
				if got := tb.Put(k, step); got == had {
					t.Fatalf("seed %d step %d: Put(%q) reported new=%v, model had=%v", seed, step, k, got, had)
				}
				m[string(k)] = step
			default:
				_, had := m[string(k)]
				if got := tb.Delete(k); got != had {
					t.Fatalf("seed %d step %d: Delete(%q) = %v, model had=%v", seed, step, k, got, had)
				}
				delete(m, string(k))
			}
			if step%500 == 0 {
				for i := range tables {
					checkModel(t, tables[i], models[i], seed, step, i)
				}
			}
		}
	}
}

// checkModel compares a table's contents, Len and SortedKeys with m.
func checkModel(t *testing.T, tb *Table[int], m map[string]int, seed int64, step, i int) {
	t.Helper()
	if tb.Len() != len(m) {
		t.Fatalf("seed %d step %d table %d: Len = %d, model %d", seed, step, i, tb.Len(), len(m))
	}
	want := make([]string, 0, len(m))
	for k, v := range m {
		if got, ok := tb.Get([]byte(k)); !ok || got != v {
			t.Fatalf("seed %d step %d table %d: Get(%q) = (%d, %v), model %d", seed, step, i, k, got, ok, v)
		}
		want = append(want, k)
	}
	n := 0
	tb.Range(func(k []byte, v int) bool {
		if mv, ok := m[string(k)]; !ok || mv != v {
			t.Fatalf("seed %d step %d table %d: Range saw (%q, %d), model (%d, %v)", seed, step, i, k, v, mv, ok)
		}
		n++
		return true
	})
	if n != len(m) {
		t.Fatalf("seed %d step %d table %d: Range visited %d, model %d", seed, step, i, n, len(m))
	}
	slices.Sort(want)
	if got := tb.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("seed %d step %d table %d: SortedKeys has %d keys, model %d", seed, step, i, len(got), len(want))
	}
}
