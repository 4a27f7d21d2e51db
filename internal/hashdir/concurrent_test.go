package hashdir

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersBesideWriter runs the table the way HART does: one
// writer creates and deletes keys of one to three bytes while three
// lock-free readers Get, Seek and Range. Every value a reader sees must be
// one the writer stored under that key, and Range must be strictly
// ascending. Run under -race, which also flags a page written after it was
// published.
func TestConcurrentReadersBesideWriter(t *testing.T) {
	const alphabet = "\x00ab\xff"
	var keys [][]byte
	for n := 1; n <= MaxKeyLen; n++ {
		for i := 0; i < 1<<(2*n); i++ {
			k := make([]byte, n)
			for j := range k {
				k[j] = alphabet[i>>(2*j)&3]
			}
			keys = append(keys, k)
		}
	}
	// The writer stores "key#generation" under each key.
	valid := func(k []byte, v string) bool { return strings.HasPrefix(v, string(k)+"#") }

	tb := New[string]()
	var done atomic.Bool
	var wg sync.WaitGroup
	readers := []func(rng *rand.Rand) error{
		func(rng *rand.Rand) error { // Get
			k := keys[rng.Intn(len(keys))]
			if v, ok := tb.Get(k); ok && !valid(k, v) {
				return fmt.Errorf("Get(%q) = %q", k, v)
			}
			return nil
		},
		func(rng *rand.Rand) error { // Seek both ways
			b := keys[rng.Intn(len(keys))]
			if k, v, ok := tb.Seek(b, false); ok && (bytes.Compare(k, b) < 0 || !valid(k, v)) {
				return fmt.Errorf("Seek(%q, false) = (%q, %q)", b, k, v)
			}
			if k, v, ok := tb.Seek(b, true); ok && (bytes.Compare(k, b) >= 0 || !valid(k, v)) {
				return fmt.Errorf("Seek(%q, true) = (%q, %q)", b, k, v)
			}
			return nil
		},
		func(*rand.Rand) (err error) { // Range
			var prev []byte
			tb.Range(func(k []byte, v string) bool {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					err = fmt.Errorf("Range visited %q after %q", k, prev)
				} else if !valid(k, v) {
					err = fmt.Errorf("Range saw (%q, %q)", k, v)
				}
				prev = append(prev[:0], k...)
				return err == nil
			})
			return err
		},
	}
	for r, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				if err := read(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(99))
	for gen := 0; gen < 20000; gen++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(3) == 0 {
			tb.Delete(k)
		} else {
			tb.Put(k, fmt.Sprintf("%s#%d", k, gen))
		}
	}
	done.Store(true)
	wg.Wait()
}
