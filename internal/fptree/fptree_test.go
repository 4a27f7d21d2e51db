package fptree

import (
	"fmt"
	"testing"

	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/kv/kvtest"
	"github.com/casl-sdsu/hart/internal/pmem"
)

func factory(t *testing.T) kv.Index {
	tr, err := New(pmem.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConformance(t *testing.T) {
	kvtest.RunAll(t, factory)
}

func TestFingerprintDistribution(t *testing.T) {
	// Fingerprints must spread keys across the byte range, otherwise the
	// one-probe property is lost.
	buckets := map[byte]int{}
	for i := 0; i < 4096; i++ {
		buckets[fingerprint([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	if len(buckets) < 200 {
		t.Fatalf("fingerprints hit only %d distinct bytes", len(buckets))
	}
}

func TestSplitChainsLeavesInOrder(t *testing.T) {
	tr, err := New(pmem.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Far more than one leaf's worth, inserted in adversarial order.
	const n = 2000
	for i := n - 1; i >= 0; i-- {
		if err := tr.Put([]byte(fmt.Sprintf("or%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// The chain supports ordered scans across many leaves.
	var got []string
	tr.Scan([]byte("or000100"), []byte("or000200"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 100 {
		t.Fatalf("range scan across split leaves: %d keys", len(got))
	}
}

func TestRecoveryRebuildsInner(t *testing.T) {
	tr, err := New(pmem.Config{Size: 64 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("rc%06d", i)), []byte(fmt.Sprintf("%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if err := tr.Delete([]byte(fmt.Sprintf("rc%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	img, err := tr.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(img)
	if err != nil {
		t.Fatal(err)
	}
	want := n - (n+4)/5
	if tr2.Len() != want {
		t.Fatalf("recovered Len = %d, want %d", tr2.Len(), want)
	}
	for i := 0; i < n; i++ {
		v, ok := tr2.GetInto([]byte(fmt.Sprintf("rc%06d", i)), nil)
		if wantOK := i%5 != 0; ok != wantOK {
			t.Fatalf("rc%06d present=%v want=%v", i, ok, wantOK)
		} else if ok && string(v) != fmt.Sprintf("%08d", i) {
			t.Fatalf("rc%06d value %q", i, v)
		}
	}
	if err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
	// Still writable.
	if err := tr2.Put([]byte("post-recovery"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringSplitEveryPersist crashes a leaf split at every persist
// boundary; recovery must end with every record present exactly once.
func TestCrashDuringSplitEveryPersist(t *testing.T) {
	for fail := int64(0); ; fail++ {
		tr, err := New(pmem.Config{Size: 64 << 20, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		// Fill exactly one leaf.
		for i := 0; i < LeafCapacity; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("sp%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		tr.Arena().FailAfterPersists(fail)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			// This insert forces the split.
			if err := tr.Put([]byte("sp9999"), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}()
		tr.Arena().DisarmCrash()
		if !crashed {
			if fail == 0 {
				t.Fatal("split performed no persists")
			}
			return
		}
		img, err := tr.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := Open(img)
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		if err := tr2.Check(); err != nil {
			t.Fatalf("fail=%d: post-recovery fsck: %v", fail, err)
		}
		for i := 0; i < LeafCapacity; i++ {
			k := fmt.Sprintf("sp%04d", i)
			if v, ok := tr2.GetInto([]byte(k), nil); !ok || string(v) != "v" {
				t.Fatalf("fail=%d: committed key %q = (%q,%v)", fail, k, v, ok)
			}
		}
		if _, ok := tr2.GetInto([]byte("sp9999"), nil); ok && tr2.Len() != LeafCapacity+1 {
			t.Fatalf("fail=%d: inconsistent size after torn insert", fail)
		}
		// The tree keeps absorbing writes.
		for i := 0; i < 2*LeafCapacity; i++ {
			if err := tr2.Put([]byte(fmt.Sprintf("post%04d", i)), []byte("p")); err != nil {
				t.Fatalf("fail=%d: %v", fail, err)
			}
		}
		if err := tr2.Check(); err != nil {
			t.Fatalf("fail=%d: fsck after refill: %v", fail, err)
		}
	}
}

func TestEmptyLeavesAreNotCoalesced(t *testing.T) {
	tr, err := New(pmem.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Build several leaves, then empty a middle range entirely.
	const n = 200
	for i := 0; i < n; i++ {
		tr.Put([]byte(fmt.Sprintf("nc%04d", i)), []byte("v"))
	}
	pmBefore := tr.SizeInfo().PMBytes
	for i := 50; i < 150; i++ {
		if err := tr.Delete([]byte(fmt.Sprintf("nc%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No merging: PM footprint unchanged (the paper's Fig. 10b point).
	if pmAfter := tr.SizeInfo().PMBytes; pmAfter != pmBefore {
		t.Fatalf("PM footprint changed %d -> %d; leaves must not coalesce", pmBefore, pmAfter)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Scans skip the hole.
	var got []string
	tr.Scan([]byte("nc0040"), []byte("nc0160"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 20 {
		t.Fatalf("scan across emptied leaves: %d keys", len(got))
	}
}

func TestInnerTreeRouting(t *testing.T) {
	it := newInnerTree(4, 100)
	seps := []string{"d", "h", "m", "r", "w", "b", "f", "k", "p", "t", "y", "c", "g"}
	for i, s := range seps {
		it.Insert([]byte(s), uint64(200+i))
	}
	// Keys below the first separator route to the seed target.
	if got := it.Lookup([]byte("a")); got != 100 {
		t.Fatalf("Lookup(a) = %d, want 100", got)
	}
	if got := it.Lookup([]byte("d")); got != 200 {
		t.Fatalf("Lookup(d) = %d, want 200", got)
	}
	if got := it.Lookup([]byte("dzz")); got != 200 {
		t.Fatalf("Lookup(dzz) = %d, want 200", got)
	}
	if got := it.Lookup([]byte("zzz")); got != 210 {
		t.Fatalf("Lookup(zzz) = %d, want 210 (separator y)", got)
	}
	if nodes, height := it.Stats(); nodes < 2 || height < 2 {
		t.Fatalf("inner tree did not split: %d nodes, height %d", nodes, height)
	}
	if it.DRAMBytes() <= 0 {
		t.Fatal("DRAMBytes not positive")
	}
}

// TestUpdateInFullLeafSplits: an update that finds no free slot must
// split first and still swap atomically.
func TestUpdateInFullLeafSplits(t *testing.T) {
	tr, err := New(pmem.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Fill one leaf exactly.
	for i := 0; i < LeafCapacity; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("uf%04d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	// Every slot is occupied: any update needs a free slot, forcing a split.
	if err := tr.Update([]byte("uf0000"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.GetInto([]byte("uf0000"), nil); !ok || string(v) != "new" {
		t.Fatalf("updated value = (%q,%v)", v, ok)
	}
	for i := 1; i < LeafCapacity; i++ {
		if v, ok := tr.GetInto([]byte(fmt.Sprintf("uf%04d", i)), nil); !ok || string(v) != "old" {
			t.Fatalf("sibling uf%04d damaged: (%q,%v)", i, v, ok)
		}
	}
	if tr.Len() != LeafCapacity {
		t.Fatalf("Len = %d after in-place update, want %d", tr.Len(), LeafCapacity)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateAtomicityAcrossCrash: the bitmap-swap update commits old->new
// atomically; a crash at every persist boundary leaves exactly one of the
// two values visible.
func TestUpdateAtomicityAcrossCrash(t *testing.T) {
	for fail := int64(0); ; fail++ {
		tr, err := New(pmem.Config{Size: 16 << 20, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("ua%02d", i)), []byte("oldval")); err != nil {
				t.Fatal(err)
			}
		}
		tr.Arena().FailAfterPersists(fail)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := tr.Update([]byte("ua03"), []byte("newval")); err != nil {
				t.Fatal(err)
			}
		}()
		tr.Arena().DisarmCrash()
		if !crashed {
			if fail == 0 {
				t.Fatal("update performed no persists")
			}
			return
		}
		img, err := tr.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := Open(img)
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		v, ok := tr2.GetInto([]byte("ua03"), nil)
		if !ok {
			t.Fatalf("fail=%d: key vanished mid-update", fail)
		}
		if s := string(v); s != "oldval" && s != "newval" {
			t.Fatalf("fail=%d: torn update: %q", fail, s)
		}
		if err := tr2.Check(); err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
	}
}

// TestScanFromMidLeafStart: a scan whose start key routes into the middle
// of a leaf skips that leaf's smaller entries.
func TestScanFromMidLeafStart(t *testing.T) {
	tr, err := New(pmem.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("sm%04d", i)), []byte("v"))
	}
	var got []string
	tr.Scan([]byte("sm0013"), []byte("sm0017"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"sm0013", "sm0014", "sm0015", "sm0016"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("mid-leaf scan = %v, want %v", got, want)
	}
}
