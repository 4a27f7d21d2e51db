package hashdir

import "testing"

// sink keeps benchmarked results alive.
var sink int

// BenchmarkCreateShards times building the 3 844-entry directory one entry
// at a time, each a Put as HART's shard creation does it.
func BenchmarkCreateShards(b *testing.B) {
	keys := pairKeys(alphabet62)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := New[int]()
		for j, k := range keys {
			tb.Put(k, j)
		}
		sink += tb.Len()
	}
}

// BenchmarkSeek times a Scan step's lookup of the next entry in the
// 3 844-entry directory: the first entry at or after each key's successor.
func BenchmarkSeek(b *testing.B) {
	keys := pairKeys(alphabet62)
	tb := New[int]()
	for i, k := range keys {
		tb.Put(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		k := keys[j]
		_, v, _ := tb.Seek([]byte{k[0], k[1] + 1}, false)
		sink += v
		if j++; j == len(keys) {
			j = 0
		}
	}
}

// BenchmarkGet times a hit in the 3 844-entry directory.
func BenchmarkGet(b *testing.B) {
	keys := pairKeys(alphabet62)
	tb := New[int]()
	for i, k := range keys {
		tb.Put(k, i)
	}
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		v, _ := tb.Get(keys[j])
		sink += v
		if j++; j == len(keys) {
			j = 0
		}
	}
}

// BenchmarkNewFromSorted times recovery's bulk construction of the
// 3 844-entry directory.
func BenchmarkNewFromSorted(b *testing.B) {
	pairs := pairKeys(alphabet62)
	keys := make([]string, len(pairs))
	for i, k := range pairs {
		keys[i] = string(k)
	}
	vals := make([]int, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += NewFromSorted(keys, vals).Len()
	}
}
