package workload

import (
	"bytes"
	"sort"
	"testing"
)

func TestDictionaryProperties(t *testing.T) {
	const n = 50000
	words := Dictionary(n)
	if len(words) != n {
		t.Fatalf("got %d words", len(words))
	}
	seen := map[string]bool{}
	for _, w := range words {
		if len(w) < 2 || len(w) > 24 {
			t.Fatalf("word %q has length %d", w, len(w))
		}
		if seen[string(w)] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[string(w)] = true
	}
	if !sort.SliceIsSorted(words, func(i, j int) bool { return bytes.Compare(words[i], words[j]) < 0 }) {
		t.Fatal("dictionary not in alphabetical order")
	}
}

func TestDictionaryFullSizeAvailable(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus in -short mode")
	}
	words := Dictionary(DictionarySize)
	if len(words) != DictionarySize {
		t.Fatalf("full corpus = %d words, want %d", len(words), DictionarySize)
	}
	seen := make(map[string]bool, DictionarySize)
	for _, w := range words {
		if seen[string(w)] {
			t.Fatalf("duplicate word %q in full corpus", w)
		}
		seen[string(w)] = true
	}
}

func TestDictionaryDeterministic(t *testing.T) {
	a, b := Dictionary(1000), Dictionary(1000)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("dictionary not deterministic at %d", i)
		}
	}
}

func TestSequentialProperties(t *testing.T) {
	keys := Sequential(10000)
	if len(keys) != 10000 {
		t.Fatalf("got %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("sequential keys not increasing at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	if string(keys[0]) != "00000000" {
		t.Fatalf("first key %q", keys[0])
	}
	for _, k := range keys[:100] {
		for _, c := range k {
			if !bytes.ContainsRune([]byte(Alphabet), rune(c)) {
				t.Fatalf("key %q uses non-alphabet byte", k)
			}
		}
	}
}

func TestRandomProperties(t *testing.T) {
	keys := Random(20000, 42)
	seen := map[string]bool{}
	lens := map[int]int{}
	for _, k := range keys {
		if len(k) < 5 || len(k) > 16 {
			t.Fatalf("key %q has length %d, want 5-16", k, len(k))
		}
		lens[len(k)]++
		if seen[string(k)] {
			t.Fatalf("duplicate random key %q", k)
		}
		seen[string(k)] = true
	}
	// All 12 lengths occur (variable sizes as in the paper).
	for l := 5; l <= 16; l++ {
		if lens[l] == 0 {
			t.Fatalf("no keys of length %d", l)
		}
	}
	// Determinism per seed, divergence across seeds.
	again := Random(100, 42)
	other := Random(100, 43)
	if !bytes.Equal(again[0], Random(100, 42)[0]) {
		t.Fatal("Random not deterministic")
	}
	if bytes.Equal(again[0], other[0]) && bytes.Equal(again[1], other[1]) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestValues(t *testing.T) {
	vs := Values(100, 8, 7)
	for _, v := range vs {
		if len(v) != 8 {
			t.Fatalf("value size %d", len(v))
		}
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, m := range Mixes() {
		if s := m.InsertPct + m.SearchPct + m.UpdatePct + m.DeletePct; s != 100 {
			t.Fatalf("mix %s sums to %d", m.Name, s)
		}
	}
	if ReadIntensive().SearchPct != 70 || WriteIntensive().InsertPct != 40 || ReadModifiedWrite().UpdatePct != 50 {
		t.Fatal("paper mix ratios wrong")
	}
}

func TestGenerateMixRatios(t *testing.T) {
	pre := Sequential(5000)
	fresh := Random(5000, 1)
	const n = 20000
	ops := ReadIntensive().Generate(n, pre, fresh, 8, 5)
	if len(ops) != n {
		t.Fatalf("generated %d ops", len(ops))
	}
	counts := map[Kind]int{}
	for _, op := range ops {
		counts[op.Kind]++
		switch op.Kind {
		case OpInsert, OpUpdate:
			if len(op.Value) != 8 {
				t.Fatalf("%v op with %d-byte value", op.Kind, len(op.Value))
			}
		}
	}
	within := func(got, wantPct int) bool {
		want := n * wantPct / 100
		slack := n / 50 // ±2%
		return got > want-slack && got < want+slack
	}
	if !within(counts[OpInsert], 10) || !within(counts[OpSearch], 70) ||
		!within(counts[OpUpdate], 10) || !within(counts[OpDelete], 10) {
		t.Fatalf("op distribution off: %v", counts)
	}
}

// TestGenerateMixConsistency replays a generated stream against a map and
// verifies deletes/updates always target live keys and inserts are fresh.
func TestGenerateMixConsistency(t *testing.T) {
	pre := Sequential(1000)
	fresh := Random(2000, 2)
	live := map[string]bool{}
	for _, k := range pre {
		live[string(k)] = true
	}
	for _, op := range ReadIntensive().Generate(10000, pre, fresh, 8, 9) {
		switch op.Kind {
		case OpInsert:
			if live[string(op.Key)] {
				t.Fatalf("insert of live key %q", op.Key)
			}
			live[string(op.Key)] = true
		case OpDelete:
			if !live[string(op.Key)] {
				t.Fatalf("delete of dead key %q", op.Key)
			}
			delete(live, string(op.Key))
		case OpSearch, OpUpdate:
			if !live[string(op.Key)] {
				t.Fatalf("%v of dead key %q", op.Kind, op.Key)
			}
		}
	}
}

func TestGenerateBadMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad mix did not panic")
		}
	}()
	Mix{Name: "bad", InsertPct: 50}.Generate(10, nil, nil, 8, 1)
}

func TestZipfianSkew(t *testing.T) {
	pre := Sequential(1000)
	ops := ReadModifiedWrite().GenerateDist(20000, pre, nil, 8, 11, ZipfTheta(0.99))
	counts := map[string]int{}
	for _, op := range ops {
		counts[string(op.Key)]++
	}
	// Zipfian concentrates mass: the hottest key must dominate far beyond
	// the uniform expectation (20000/1000 = 20 hits per key).
	maxHits := 0
	for _, c := range counts {
		if c > maxHits {
			maxHits = c
		}
	}
	if maxHits < 200 {
		t.Fatalf("zipfian hottest key hit %d times; expected heavy skew", maxHits)
	}
	// Uniform for contrast stays flat.
	ops = ReadModifiedWrite().GenerateDist(20000, pre, nil, 8, 11, Uniform())
	counts = map[string]int{}
	for _, op := range ops {
		counts[string(op.Key)]++
	}
	maxHits = 0
	for _, c := range counts {
		if c > maxHits {
			maxHits = c
		}
	}
	if maxHits > 100 {
		t.Fatalf("uniform hottest key hit %d times; distribution is skewed", maxHits)
	}
}

func TestGenerateDistDeleteConsistency(t *testing.T) {
	// Zipfian deletes must still only target live keys.
	pre := Sequential(500)
	live := map[string]bool{}
	for _, k := range pre {
		live[string(k)] = true
	}
	mix := Mix{Name: "churn", InsertPct: 20, SearchPct: 20, UpdatePct: 20, DeletePct: 40}
	for _, op := range mix.GenerateDist(5000, pre, Random(5000, 21), 8, 13, ZipfTheta(0.99)) {
		switch op.Kind {
		case OpInsert:
			if live[string(op.Key)] {
				t.Fatalf("insert of live key %q", op.Key)
			}
			live[string(op.Key)] = true
		case OpDelete:
			if !live[string(op.Key)] {
				t.Fatalf("delete of dead key %q", op.Key)
			}
			delete(live, string(op.Key))
		default:
			if !live[string(op.Key)] {
				t.Fatalf("%v of dead key %q", op.Kind, op.Key)
			}
		}
	}
}
