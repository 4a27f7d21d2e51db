package pmart

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/kv/kvtest"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// pureTree is what both trees offer the tests: the index and its fsck.
type pureTree interface {
	kv.Index
	Check() error
}

// trees lists both trees with their constructor and Open, so each test
// below runs on WOART and on ART+CoW.
var trees = []struct {
	name string
	new  func(pmem.Config) (pureTree, error)
	open func(*pmem.Arena) (pureTree, error)
}{
	{
		"WOART",
		func(c pmem.Config) (pureTree, error) { return NewWOART(c) },
		func(a *pmem.Arena) (pureTree, error) { return OpenWOART(a) },
	},
	{
		"ART+CoW",
		func(c pmem.Config) (pureTree, error) { return NewCoW(c) },
		func(a *pmem.Arena) (pureTree, error) { return OpenCoW(a) },
	},
}

// forEachTree runs fn as one subtest per tree, each on a fresh tree over
// an arena of cfg.
func forEachTree(t *testing.T, cfg pmem.Config, fn func(t *testing.T, tr pureTree)) {
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.new(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, tr)
		})
	}
}

func TestConformance(t *testing.T) {
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			kvtest.RunAll(t, func(t *testing.T) kv.Index {
				tr, err := tc.new(pmem.Config{Size: 64 << 20})
				if err != nil {
					t.Fatal(err)
				}
				if tr.Name() != tc.name {
					t.Fatalf("Name() = %q, want %q", tr.Name(), tc.name)
				}
				return tr
			})
		})
	}
}

func TestValidation(t *testing.T) {
	forEachTree(t, pmem.Config{Size: 1 << 20}, func(t *testing.T, tr pureTree) {
		if err := tr.Put(nil, []byte("v")); !errors.Is(err, ErrBadKey) {
			t.Fatalf("empty key: %v", err)
		}
		if err := tr.Put([]byte("has\x00zero"), []byte("v")); !errors.Is(err, ErrBadKey) {
			t.Fatalf("zero-byte key (terminator collision): %v", err)
		}
		if err := tr.Put([]byte("0123456789012345678901234"), []byte("v")); !errors.Is(err, ErrBadKey) {
			t.Fatalf("25-byte key: %v", err)
		}
		if err := tr.Put([]byte("k"), make([]byte, 17)); !errors.Is(err, ErrBadValue) {
			t.Fatalf("17-byte value: %v", err)
		}
	})
}

// TestOpenRefusesOtherTree: the superblock magic names the commit
// protocol, so neither tree attaches to the other's image, and neither to
// an arena that holds no tree.
func TestOpenRefusesOtherTree(t *testing.T) {
	blank, err := pmem.New(pmem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range trees {
		tr, err := tc.new(pmem.Config{Size: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.open(tr.Arena()); err != nil {
			t.Fatalf("%s refuses its own image: %v", tc.name, err)
		}
		other := trees[1-i]
		if _, err := other.open(tr.Arena()); err == nil {
			t.Fatalf("%s opened a %s image", other.name, tc.name)
		}
		if _, err := tc.open(blank); err == nil {
			t.Fatalf("%s opened an unformatted arena", tc.name)
		}
	}
}

// TestPurePMSurvivesRestart: neither tree needs a rebuild — the whole
// tree is on PM, so re-attaching after a clean crash finds every committed
// record (the property Fig. 10c relies on).
func TestPurePMSurvivesRestart(t *testing.T) {
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := tc.new(pmem.Config{Size: 32 << 20, Tracking: true})
			if err != nil {
				t.Fatal(err)
			}
			const n = 3000
			for i := 0; i < n; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("pm%06d", i)), []byte(fmt.Sprintf("%08d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i += 3 {
				if err := tr.Delete([]byte(fmt.Sprintf("pm%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			img, err := tr.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tr2, err := tc.open(img)
			if err != nil {
				t.Fatal(err)
			}
			if want := n - (n+2)/3; tr2.Len() != want {
				t.Fatalf("recovered Len = %d, want %d", tr2.Len(), want)
			}
			for i := 0; i < n; i++ {
				v, ok := tr2.GetInto([]byte(fmt.Sprintf("pm%06d", i)), nil)
				if wantOK := i%3 != 0; ok != wantOK {
					t.Fatalf("pm%06d present=%v want=%v", i, ok, wantOK)
				} else if ok && string(v) != fmt.Sprintf("%08d", i) {
					t.Fatalf("pm%06d value %q", i, v)
				}
			}
			if err := tr2.Check(); err != nil {
				t.Fatal(err)
			}
			// The reopened tree keeps working.
			if err := tr2.Put([]byte("after-crash"), []byte("ok")); err != nil {
				t.Fatal(err)
			}
			if v, ok := tr2.GetInto([]byte("after-crash"), nil); !ok || string(v) != "ok" {
				t.Fatalf("post-reopen Put lost: (%q,%v)", v, ok)
			}
		})
	}
}

// crashCases are the single operations TestCrashAtomicity interrupts:
// inserts that add an edge, grow a node and split a leaf, and deletes that
// unlink a leaf, shrink a NODE16 to a NODE4 and merge a compressed path
// into the surviving child.
var crashCases = []struct {
	name string
	// pre is inserted, then drop deleted, before the crash is armed.
	pre, drop []string
	// put inserts this key when set; otherwise del is deleted.
	put, del string
}{
	{name: "insert", pre: []string{"crashA", "crashB", "crashAB", "cr", "dz999"}, put: "crashNEW"},
	{name: "insert-grow", pre: []string{"g1", "g2", "g3", "g4", "zz"}, put: "g5"},
	{name: "insert-split-prefix", pre: []string{"prefixedA", "prefixedB", "zz"}, put: "prefAB"},
	{name: "delete", pre: []string{"crashA", "crashB", "crashAB", "cr", "dz999"}, del: "crashAB"},
	{name: "delete-shrink", pre: []string{"shr1", "shr2", "shr3", "shr4", "shr5", "zz"}, drop: []string{"shr5"}, del: "shr4"},
	{name: "delete-merge", pre: []string{"longmergeX1", "longmergeX2", "longmergeY", "zz"}, del: "longmergeY"},
}

// TestCrashAtomicity crashes each case's operation at every persist
// boundary and reopens the durable image: it must hold exactly the records
// before the operation or exactly those after it, pass Check, and take
// the operation again.
func TestCrashAtomicity(t *testing.T) {
	for _, tc := range trees {
		for _, cc := range crashCases {
			t.Run(tc.name+"/"+cc.name, func(t *testing.T) {
				before := map[string]string{}
				for _, k := range cc.pre {
					before[k] = "pre-" + k
				}
				for _, k := range cc.drop {
					delete(before, k)
				}
				after := maps.Clone(before)
				op := func(tr pureTree) error { return tr.Delete([]byte(cc.del)) }
				if cc.put != "" {
					after[cc.put] = "new"
					op = func(tr pureTree) error { return tr.Put([]byte(cc.put), []byte("new")) }
				} else {
					delete(after, cc.del)
				}
				for fail := int64(0); ; fail++ {
					tr, err := tc.new(pmem.Config{Size: 1 << 20, Tracking: true})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range cc.pre {
						if err := tr.Put([]byte(k), []byte("pre-"+k)); err != nil {
							t.Fatal(err)
						}
					}
					for _, k := range cc.drop {
						if err := tr.Delete([]byte(k)); err != nil {
							t.Fatal(err)
						}
					}
					tr.Arena().FailAfterPersists(fail)
					crashed := crashes(t, func() error { return op(tr) })
					tr.Arena().DisarmCrash()
					if !crashed {
						if fail == 0 {
							t.Fatal("operation performed no persists")
						}
						t.Logf("%d crash points", fail)
						return
					}
					img, err := tr.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
					if err != nil {
						t.Fatal(err)
					}
					tr2, err := tc.open(img)
					if err != nil {
						t.Fatalf("fail=%d: %v", fail, err)
					}
					got := contents(tr2)
					if err := tr2.Check(); err != nil {
						t.Fatalf("fail=%d: %v", fail, err)
					}
					switch {
					case maps.Equal(got, after):
					case maps.Equal(got, before):
						if err := op(tr2); err != nil {
							t.Fatalf("fail=%d: redo on the recovered tree: %v", fail, err)
						}
						if got := contents(tr2); !maps.Equal(got, after) {
							t.Fatalf("fail=%d: redo left %v, want %v", fail, got, after)
						}
					default:
						t.Fatalf("fail=%d: torn image %v, want %v or %v", fail, got, before, after)
					}
				}
			})
		}
	}
}

// crashes runs fn and reports whether it stopped at an injected crash.
func crashes(t *testing.T, fn func() error) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.CrashError); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return false
}

// contents returns every record of tr, checking that Len agrees.
func contents(tr pureTree) map[string]string {
	m := map[string]string{}
	tr.Scan(nil, nil, func(k, v []byte) bool {
		m[string(k)] = string(v)
		return true
	})
	if len(m) != tr.Len() {
		m["<Len>"] = fmt.Sprint(tr.Len())
	}
	return m
}

func TestSizeInfoPurePM(t *testing.T) {
	forEachTree(t, pmem.Config{Size: 16 << 20}, func(t *testing.T, tr pureTree) {
		for i := 0; i < 100; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("m%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		si := tr.SizeInfo()
		if si.DRAMBytes != 0 {
			t.Fatalf("DRAM = %d, want 0 (paper Fig. 10b: pure-PM trees use no DRAM)", si.DRAMBytes)
		}
		if si.PMBytes <= 0 {
			t.Fatalf("PMBytes = %d", si.PMBytes)
		}
	})
}

func TestFreeListReuseKeepsArenaFlat(t *testing.T) {
	forEachTree(t, pmem.Config{Size: 16 << 20}, func(t *testing.T, tr pureTree) {
		for i := 0; i < 500; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("fl%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			if err := tr.Delete([]byte(fmt.Sprintf("fl%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
		grown := tr.Arena().Reserved()
		// Reinserting the same set must come mostly from the free lists.
		for i := 0; i < 500; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("fl%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if after := tr.Arena().Reserved(); after > grown+4096 {
			t.Fatalf("free lists unused: arena grew %d -> %d", grown, after)
		}
	})
}

// TestSharedSubtreesNotFreed: after heavy churn in one subtree, records
// in the untouched ones remain intact (ART+CoW shares them between
// versions, and must not free them).
func TestSharedSubtreesNotFreed(t *testing.T) {
	forEachTree(t, pmem.Config{Size: 64 << 20}, func(t *testing.T, tr pureTree) {
		for i := 0; i < 2000; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("sh%06d", i)), []byte(fmt.Sprintf("%08d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 5; r++ {
			for i := 0; i < 200; i++ {
				if err := tr.Put([]byte(fmt.Sprintf("zz%04d", i)), []byte("churn")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				if err := tr.Delete([]byte(fmt.Sprintf("zz%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			v, ok := tr.GetInto([]byte(fmt.Sprintf("sh%06d", i)), nil)
			if !ok || string(v) != fmt.Sprintf("%08d", i) {
				t.Fatalf("shared record sh%06d damaged: (%q,%v)", i, v, ok)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCoWReusesFreedNodes: updates recycle the replaced value objects
// through the free lists, keeping arena growth bounded under churn.
func TestCoWReusesFreedNodes(t *testing.T) {
	forEachTree(t, pmem.Config{Size: 64 << 20}, func(t *testing.T, tr pureTree) {
		for i := 0; i < 500; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("re%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		base := tr.Arena().Reserved()
		for r := 0; r < 10; r++ {
			for i := 0; i < 100; i++ {
				if err := tr.Update([]byte(fmt.Sprintf("re%05d", i)), []byte("u")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if after := tr.Arena().Reserved(); after > base+(64<<10) {
			t.Fatalf("updates grew arena %d -> %d; free lists unused", base, after)
		}
	})
}
