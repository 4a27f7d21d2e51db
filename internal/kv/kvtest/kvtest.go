// Package kvtest is a conformance harness shared by the test suites of
// all four persistent trees (HART, WOART, ART+CoW, FPTree). Each tree's
// package runs the same behavioural battery against a factory, so the
// baselines are held to the same functional contract as HART — a
// prerequisite for the performance comparison to be meaningful.
package kvtest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/casl-sdsu/hart/internal/kv"
)

// Factory builds a fresh empty index.
type Factory func(t *testing.T) kv.Index

// RunAll executes the full battery.
func RunAll(t *testing.T, f Factory) {
	t.Run("Basic", func(t *testing.T) { Basic(t, f) })
	t.Run("UpdateSemantics", func(t *testing.T) { UpdateSemantics(t, f) })
	t.Run("DeleteSemantics", func(t *testing.T) { DeleteSemantics(t, f) })
	t.Run("ScanOrdered", func(t *testing.T) { ScanOrdered(t, f) })
	t.Run("Randomized", func(t *testing.T) { Randomized(t, f) })
	t.Run("ValueSizes", func(t *testing.T) { ValueSizes(t, f) })
	t.Run("DenseFanout", func(t *testing.T) { DenseFanout(t, f) })
	t.Run("SharedPrefixes", func(t *testing.T) { SharedPrefixes(t, f) })
}

// check runs the index's fsck if it has one.
func check(t *testing.T, ix kv.Index) {
	t.Helper()
	if c, ok := ix.(kv.Checkable); ok {
		if err := c.Check(); err != nil {
			t.Fatalf("%s fsck: %v", ix.Name(), err)
		}
	}
}

// Basic covers the four basic operations on a handful of keys.
func Basic(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	if _, ok := ix.GetInto([]byte("absent"), nil); ok {
		t.Fatal("GetInto on empty index succeeded")
	}
	keys := []string{"apple", "application", "banana", "band", "bandana", "can"}
	for i, k := range keys {
		if err := ix.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(keys))
	}
	buf := make([]byte, 0, 16)
	for i, k := range keys {
		v, ok := ix.GetInto([]byte(k), nil)
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("GetInto(%q) = (%q,%v)", k, v, ok)
		}
		// A buffer with room receives the value in place.
		v, ok = ix.GetInto([]byte(k), buf)
		if !ok || string(v) != fmt.Sprintf("v%d", i) || &v[0] != &buf[:1][0] {
			t.Fatalf("GetInto(%q, buf) = (%q,%v), not in buf", k, v, ok)
		}
	}
	// Nor does the search allocate: every tree searches as the paper's C
	// does, so a figure charges none of them Go heap allocations.
	bkeys := make([][]byte, len(keys))
	for i, k := range keys {
		bkeys[i] = []byte(k)
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, k := range bkeys {
			ix.GetInto(k, buf)
		}
	}); n != 0 {
		t.Fatalf("%d searches into a buffer with room made %v heap allocations, want 0", len(bkeys), n)
	}
	check(t, ix)
}

// UpdateSemantics covers in-place puts, explicit updates and size-class
// crossings.
func UpdateSemantics(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	if err := ix.Update([]byte("ghost"), []byte("v")); err == nil {
		t.Fatal("Update of missing key succeeded")
	}
	if err := ix.Put([]byte("key"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := ix.Put([]byte("key"), []byte("second")); err != nil {
		t.Fatal(err)
	}
	if v, _ := ix.GetInto([]byte("key"), nil); string(v) != "second" {
		t.Fatalf("after Put-update: %q", v)
	}
	if err := ix.Update([]byte("key"), []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if v, _ := ix.GetInto([]byte("key"), nil); string(v) != "0123456789abcdef" {
		t.Fatalf("after class-crossing update: %q", v)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	check(t, ix)
}

// DeleteSemantics covers removal, double deletion and reinsertion.
func DeleteSemantics(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	for i := 0; i < 200; i++ {
		if err := ix.Put([]byte(fmt.Sprintf("d%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		if err := ix.Delete([]byte(fmt.Sprintf("d%04d", i))); err != nil {
			t.Fatalf("Delete d%04d: %v", i, err)
		}
	}
	if ix.Len() != 100 {
		t.Fatalf("Len = %d, want 100", ix.Len())
	}
	if err := ix.Delete([]byte("d0000")); err == nil {
		t.Fatal("double delete succeeded")
	}
	for i := 0; i < 200; i++ {
		_, ok := ix.GetInto([]byte(fmt.Sprintf("d%04d", i)), nil)
		if want := i%2 == 1; ok != want {
			t.Fatalf("d%04d present=%v want %v", i, ok, want)
		}
	}
	// Reinsert the deleted half.
	for i := 0; i < 200; i += 2 {
		if err := ix.Put([]byte(fmt.Sprintf("d%04d", i)), []byte("back")); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 200 {
		t.Fatalf("Len = %d after reinsertion, want 200", ix.Len())
	}
	check(t, ix)
}

// ScanOrdered covers full and bounded ordered scans.
func ScanOrdered(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	perm := rand.New(rand.NewSource(11)).Perm(500)
	for _, i := range perm {
		if err := ix.Put([]byte(fmt.Sprintf("s%05d", i)), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	ix.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 500 {
		t.Fatalf("full scan: %d keys", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("full scan out of order")
	}
	got = got[:0]
	ix.Scan([]byte("s00100"), []byte("s00150"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 50 || got[0] != "s00100" || got[49] != "s00149" {
		t.Fatalf("bounded scan: %d keys %v", len(got), got)
	}
	n := 0
	ix.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Randomized runs a differential test against a map model.
func Randomized(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	rng := rand.New(rand.NewSource(99))
	model := map[string]string{}
	var live []string
	const ops = 8000
	alphabet := "abcdeXY019"
	randKey := func() string {
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			k := randKey()
			v := fmt.Sprintf("%08d", rng.Intn(1e8))
			if err := ix.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("op %d: Put(%q): %v", i, k, err)
			}
			if _, existed := model[k]; !existed {
				live = append(live, k)
			}
			model[k] = v
		case op < 7 && len(live) > 0:
			j := rng.Intn(len(live))
			k := live[j]
			if err := ix.Delete([]byte(k)); err != nil {
				t.Fatalf("op %d: Delete(%q): %v", i, k, err)
			}
			delete(model, k)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 8 && len(live) > 0:
			k := live[rng.Intn(len(live))]
			v := fmt.Sprintf("u%07d", rng.Intn(1e7))
			if err := ix.Update([]byte(k), []byte(v)); err != nil {
				t.Fatalf("op %d: Update(%q): %v", i, k, err)
			}
			model[k] = v
		default:
			k := randKey()
			got, ok := ix.GetInto([]byte(k), nil)
			want, existed := model[k]
			if ok != existed || (ok && string(got) != want) {
				t.Fatalf("op %d: GetInto(%q) = (%q,%v), want (%q,%v)", i, k, got, ok, want, existed)
			}
		}
	}
	if ix.Len() != len(model) {
		t.Fatalf("final Len = %d, model %d", ix.Len(), len(model))
	}
	for k, v := range model {
		got, ok := ix.GetInto([]byte(k), nil)
		if !ok || string(got) != v {
			t.Fatalf("final GetInto(%q) = (%q,%v), want %q", k, got, ok, v)
		}
	}
	check(t, ix)
}

// ValueSizes covers every legal value length.
func ValueSizes(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	for n := 1; n <= 16; n++ {
		k := fmt.Sprintf("vs%02d", n)
		v := make([]byte, n)
		for i := range v {
			v[i] = byte('A' + n)
		}
		if err := ix.Put([]byte(k), v); err != nil {
			t.Fatalf("Put %d-byte value: %v", n, err)
		}
	}
	for n := 1; n <= 16; n++ {
		v, ok := ix.GetInto([]byte(fmt.Sprintf("vs%02d", n)), nil)
		if !ok || len(v) != n {
			t.Fatalf("GetInto %d-byte value: (%d bytes, %v)", n, len(v), ok)
		}
		for _, b := range v {
			if b != byte('A'+n) {
				t.Fatalf("%d-byte value corrupted: %q", n, v)
			}
		}
	}
	check(t, ix)
}

// DenseFanout forces every node kind (4, 16, 48, 256) on one level, then
// deletes back down through every shrink threshold.
func DenseFanout(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	alphabet := make([]byte, 0, 62)
	for c := byte('A'); c <= 'Z'; c++ {
		alphabet = append(alphabet, c)
	}
	for c := byte('a'); c <= 'z'; c++ {
		alphabet = append(alphabet, c)
	}
	for c := byte('0'); c <= '9'; c++ {
		alphabet = append(alphabet, c)
	}
	var keys []string
	for _, c1 := range alphabet {
		for _, c2 := range alphabet[:5] {
			keys = append(keys, string([]byte{'F', 'A', 'N', c1, c2}))
		}
	}
	for i, k := range keys {
		if err := ix.Put([]byte(k), []byte(fmt.Sprintf("%03d", i%1000))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok := ix.GetInto([]byte(k), nil)
		if !ok || string(v) != fmt.Sprintf("%03d", i%1000) {
			t.Fatalf("GetInto(%q) after fanout growth = (%q,%v)", k, v, ok)
		}
	}
	// Delete in random order to walk back down through shrink thresholds.
	perm := rand.New(rand.NewSource(5)).Perm(len(keys))
	for n, j := range perm {
		if err := ix.Delete([]byte(keys[j])); err != nil {
			t.Fatalf("Delete(%q): %v", keys[j], err)
		}
		if n%64 == 0 {
			// Spot-check a surviving key.
			for _, jj := range perm[n+1:] {
				if _, ok := ix.GetInto([]byte(keys[jj]), nil); !ok {
					t.Fatalf("key %q lost after %d deletions", keys[jj], n+1)
				}
				break
			}
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", ix.Len())
	}
	check(t, ix)
}

// SharedPrefixes stresses path compression with long common prefixes and
// multi-level divergence.
func SharedPrefixes(t *testing.T, f Factory) {
	ix := f(t)
	defer ix.Close()
	keys := []string{
		"prefixprefixprefixA",
		"prefixprefixprefixB",
		"prefixprefixpreXY",
		"prefixprefix",
		"prefixP",
		"prefiA",
		"q",
	}
	for i, k := range keys {
		if err := ix.Put([]byte(k), []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	for i, k := range keys {
		v, ok := ix.GetInto([]byte(k), nil)
		if !ok || string(v) != fmt.Sprintf("p%d", i) {
			t.Fatalf("GetInto(%q) = (%q,%v)", k, v, ok)
		}
	}
	// Remove middle links of the prefix chain.
	for _, k := range []string{"prefixprefix", "prefixprefixpreXY"} {
		if err := ix.Delete([]byte(k)); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	for _, k := range []string{"prefixprefixprefixA", "prefixprefixprefixB", "prefixP", "prefiA", "q"} {
		if _, ok := ix.GetInto([]byte(k), nil); !ok {
			t.Fatalf("key %q lost after prefix-chain deletions", k)
		}
	}
	check(t, ix)
}
