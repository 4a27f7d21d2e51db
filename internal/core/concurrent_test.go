package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentWritersDistinctARTs exercises the paper's concurrency
// model: writers on distinct hash keys (hence distinct ARTs) proceed in
// parallel without interference.
func TestConcurrentWritersDistinctARTs(t *testing.T) {
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := fmt.Sprintf("%c%c", 'a'+w, 'a'+w) // distinct hash key per worker
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("%s%06d", prefix, i))
				if err := h.Put(k, []byte(fmt.Sprintf("w%dv%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", h.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		prefix := fmt.Sprintf("%c%c", 'a'+w, 'a'+w)
		for i := 0; i < perWorker; i += 97 {
			k := []byte(fmt.Sprintf("%s%06d", prefix, i))
			got, ok := h.Get(k)
			if !ok || string(got) != fmt.Sprintf("w%dv%d", w, i) {
				t.Fatalf("worker %d key %d: (%q,%v)", w, i, got, ok)
			}
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedSameART hammers one hash key with concurrent
// readers, writers and deleters; the per-ART RWMutex must serialise them
// without losing consistency.
func TestConcurrentMixedSameART(t *testing.T) {
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("zz%03d", (w*per+i)%200)) // shared ART "zz"
				switch i % 4 {
				case 0, 1:
					if err := h.Put(k, []byte(fmt.Sprintf("%08d", i))); err != nil {
						t.Error(err)
						return
					}
				case 2:
					h.Get(k)
				case 3:
					h.Delete(k) // ErrNotFound is fine
				}
			}
		}(w)
	}
	wg.Wait()
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScanDuringWrites checks that ordered scans run safely
// against concurrent writers (they hold per-shard read locks).
func TestConcurrentScanDuringWrites(t *testing.T) {
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := h.Put([]byte(fmt.Sprintf("sc%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 1000
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Put([]byte(fmt.Sprintf("sc%05d", i)), []byte("v"))
			h.Delete([]byte(fmt.Sprintf("sc%05d", i-1000)))
			i++
		}
	}()
	for r := 0; r < 20; r++ {
		prev := ""
		n := 0
		h.Scan(nil, nil, func(k, v []byte) bool {
			if s := string(k); s <= prev {
				t.Errorf("scan out of order under writes: %q after %q", s, prev)
				return false
			} else {
				prev = s
			}
			n++
			return true
		})
		if n == 0 {
			t.Error("scan saw no records")
		}
	}
	close(stop)
	wg.Wait()
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestOptimisticReadStress drives the lock-free read path through its
// seqlock retries: writers continuously update a small hot key set (so
// readers keep colliding with open write sections and value-slot reuse)
// while readers verify that every value they observe is one a writer
// actually wrote for that exact key — a torn or stale read would mix
// generations or keys. Run under -race this also proves the word-level
// atomicity of the PM accesses the optimistic protocol performs.
func TestOptimisticReadStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const hotKeys = 16
	key := func(i int) []byte { return []byte(fmt.Sprintf("hh%03d", i)) }
	// value encodes (key index, generation) so any cross-key or torn mix
	// is detectable: two identical 8-byte words, each carrying the pair.
	value := func(i, gen int) []byte {
		half := fmt.Sprintf("%03d-%04d", i, gen%10000)
		return []byte(half + half)
	}
	for i := 0; i < hotKeys; i++ {
		if err := h.Put(key(i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Updaters: constant value-slot churn on every hot key.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := 1; !stop.Load(); gen++ {
				for i := w; i < hotKeys; i += 2 {
					if err := h.Put(key(i), value(i, gen)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: Get, zero-alloc GetInto and Contains against the hot set.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 0, 16)
			for n := 0; !stop.Load(); n++ {
				i := (r + n) % hotKeys
				var v []byte
				var ok bool
				if n%2 == 0 {
					v, ok = h.Get(key(i))
				} else {
					v, ok = h.GetInto(key(i), buf)
				}
				if !ok {
					t.Errorf("hot key %d missing", i)
					return
				}
				// Self-consistency: both halves must agree and name key i.
				if len(v) != 16 || !bytes.Equal(v[:8], v[8:]) || string(v[:3]) != fmt.Sprintf("%03d", i) {
					t.Errorf("inconsistent read for key %d: %q", i, v)
					return
				}
				if !h.Contains(key(i)) {
					t.Errorf("Contains(%d) = false for live key", i)
					return
				}
			}
		}(r)
	}
	// Churner: creates and empties a neighbouring shard so readers also
	// race directory snapshot replacement and the dead-shard path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := []byte("hz-ephemeral")
		for !stop.Load() {
			if err := h.Put(k, []byte("x")); err != nil {
				t.Error(err)
				return
			}
			if err := h.Delete(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 400; i++ {
		runtime.Gosched()
		for j := 0; j < hotKeys; j++ {
			if !h.Contains(key(j)) {
				t.Fatalf("hot key %d vanished", j)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestGetFallsBackUnderOpenWriteSection drives lockedGet's one job
// deterministically: a Get that finds its shard's seqlock odd on every
// optimistic attempt gives up, queues on the shard read lock, and returns
// the committed value once the writer leaves.
func TestGetFallsBackUnderOpenWriteSection(t *testing.T) {
	h := newHART(t)
	key := []byte("fb-key")
	mustPut(t, h, string(key), "committed")
	s, _ := h.getShard(key, false)
	retries, fallbacks := h.obs.seqRetries.Value(), h.obs.lockedFallbacks.Value()

	s.mu.Lock()
	s.beginWrite()
	type result struct {
		v  []byte
		ok bool
	}
	done := make(chan result)
	go func() {
		v, ok := h.Get(key)
		done <- result{v, ok}
	}()
	// The reader counts its fallback before it asks for the read lock, so
	// from here on nothing it does can succeed until the Unlock below.
	for h.obs.lockedFallbacks.Value() == fallbacks {
		runtime.Gosched()
	}
	select {
	case r := <-done:
		t.Fatalf("Get returned (%q,%v) inside an open write section", r.v, r.ok)
	default:
	}
	s.endWrite()
	s.mu.Unlock()

	if r := <-done; !r.ok || string(r.v) != "committed" {
		t.Fatalf("Get = (%q,%v), want the committed value", r.v, r.ok)
	}
	if got := h.obs.seqRetries.Value() - retries; got != optimisticAttempts {
		t.Fatalf("read.seq_retries rose by %d, want %d", got, optimisticAttempts)
	}
	if got := h.obs.lockedFallbacks.Value() - fallbacks; got != 1 {
		t.Fatalf("read.locked_fallbacks rose by %d, want 1", got)
	}
}

// TestOptimisticReadShardRemoval races lock-free readers against the
// delete-to-empty / recreate cycle of a single shard: a reader holding a
// stale directory snapshot must either conclusively miss or return a
// value that was live for that key, never panic or fabricate.
func TestOptimisticReadShardRemoval(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("rr-flicker")
	var stop atomic.Bool
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; !stop.Load(); i++ {
			if err := h.Put(k, []byte(fmt.Sprintf("%08d", i))); err != nil {
				t.Error(err)
				return
			}
			if err := h.Delete(k); err != nil { // empties and retires the shard
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, 0, 16)
			for n := 0; n < 20000; n++ {
				if v, ok := h.GetInto(k, buf); ok && len(v) != 8 {
					t.Errorf("bad value %q", v)
					return
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyShardRemovalRace races deleters that empty an ART against
// inserters recreating it; the dead-shard retry loop must never lose a
// committed write.
func TestEmptyShardRemovalRace(t *testing.T) {
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := []byte("qq-contended")
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					h.Put(k, []byte{byte(w + 1)})
				} else {
					h.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	// Converge to a known state.
	if err := h.Put([]byte("qq-contended"), []byte("done")); err != nil {
		t.Fatal(err)
	}
	got, ok := h.Get([]byte("qq-contended"))
	if !ok || string(got) != "done" {
		t.Fatalf("final state (%q,%v)", got, ok)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSameStripeSiblingShards is the regression test for slot hand-back:
// four writers, each looping Put, Get, Delete on its own key in its own
// shard, whose four directory prefixes all map to one allocator stripe.
// The writers share no shard lock, only the stripe's slot lists, so a
// leaf or value slot that an operation makes allocatable before it is
// done with it is handed to a sibling mid-operation — a write the
// operation still makes to the slot then lands on the sibling's fresh
// record, and the sibling's own acknowledged Put reads as not found.
func TestSameStripeSiblingShards(t *testing.T) {
	h, err := New(Options{ArenaSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := sameStripePrefixes(t, 4)

	deadline := time.Now().Add(2 * time.Second)
	var rounds, lost atomic.Int64
	var wg sync.WaitGroup
	for w, p := range prefixes {
		wg.Add(1)
		go func(w int, key []byte) {
			defer wg.Done()
			// Two writers' values fit the leaf, two need a value object, so
			// both classes' slots change hands.
			val := []byte{byte('0' + w), 'v'}
			if w%2 == 1 {
				val = append(val, "-in-an-object"...)
			}
			buf := make([]byte, 0, MaxValueLen)
			for n := 0; time.Now().Before(deadline); n++ {
				val[1] = byte(n)
				if err := h.Put(key, val); err != nil {
					t.Errorf("writer %d: Put: %v", w, err)
					return
				}
				if v, ok := h.GetInto(key, buf); !ok || !bytes.Equal(v, val) {
					lost.Add(1)
				}
				if err := h.Delete(key); err != nil {
					t.Errorf("writer %d: Delete of its own key: %v", w, err)
					return
				}
				rounds.Add(1)
			}
		}(w, append(append([]byte(nil), p...), "-key"...))
	}
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Errorf("%d of %d rounds did not read back their own acknowledged Put", n, rounds.Load())
	}
	if err := h.Check(); err != nil {
		t.Errorf("Check after %d rounds: %v", rounds.Load(), err)
	}
}

// TestShapeCyclingReadersSeeWholeValues races lock-free readers against a
// writer that takes every key of a set round and round through the value
// shapes: 8 bytes in the leaf, 8 again (the one-store update), 5 (the
// shape byte changes), 16 (out of the leaf into a value object), back to 8.
// A reader learns the shape from the tree and the bytes from PM, in two
// loads a writer can come between; whatever it returns must be one value
// that was written to that key — the key's own, whole, of the length it
// was written with — never the old length over the new bytes or the
// reverse. Every value spells its key, its step and its own length in each
// byte, so any mixture shows.
func TestShapeCyclingReadersSeeWholeValues(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 16
	lens := [...]int{8, 8, 5, 16, 8}
	const steps = 50 * len(lens) // what a byte can count, in whole cycles
	key := func(i int) []byte { return []byte(fmt.Sprintf("s%c-cycle%02d", 'a'+i%3, i)) }
	value := func(i, step int) []byte {
		v := make([]byte, lens[step%len(lens)])
		v[0], v[1] = byte(i), byte(step)
		for j := 2; j < len(v); j++ {
			v[j] = byte(i*31 + step*17 + len(v)*7 + j)
		}
		return v
	}
	for i := 0; i < nkeys; i++ {
		if err := h.Put(key(i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			buf := make([]byte, 0, MaxValueLen)
			for n := r; !stop.Load(); n++ {
				i := n % nkeys
				v, ok := h.GetInto(key(i), buf)
				if !ok {
					t.Errorf("key %d missing", i)
					return
				}
				if len(v) < 2 || int(v[0]) != i || int(v[1]) >= steps || !bytes.Equal(v, value(i, int(v[1]))) {
					t.Errorf("key %d: read %x, which was never written to it", i, v)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 2 && !t.Failed(); round++ {
		for step := 1; step <= steps; step++ {
			for i := 0; i < nkeys; i++ {
				if err := h.Put(key(i), value(i, step%steps)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	stop.Store(true)
	readers.Wait()
	for i := 0; i < nkeys; i++ {
		if v, ok := h.Get(key(i)); !ok || !bytes.Equal(v, value(i, 0)) {
			t.Fatalf("key %d = (%x, %v) after the last cycle, want %x", i, v, ok, value(i, 0))
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestImmediateSlotReuse races lock-free readers against writers that hand
// leaf and value slots straight back to each other. The four writers own
// different hash keys whose prefixes all map to one allocator stripe, so
// they share its chunks: each deletes and re-inserts its keys round after
// round, and every delete leaves its leaf slot allocatable at once with
// the old word 0 in place — a packed pointer to a value slot that a
// sibling may already have re-committed, or an inline value's bytes. No
// write path reads that word, so none may act on it: every value a reader
// returns must be one written to its key, and fsck must be clean at the
// end. Values alternate between the leaf and a value object, so both kinds
// of stale word 0 are left behind.
func TestImmediateSlotReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h, err := New(Options{ArenaSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers, keysPer, rounds = 4, 8, 300
	prefixes := sameStripePrefixes(t, writers)
	key := func(w, i int) []byte { return fmt.Appendf(nil, "%s-%02d", prefixes[w], i) }
	// value spells its key and round, 16 bytes on even rounds, 8 on odd.
	value := func(w, i, round int) []byte {
		v := make([]byte, 16-8*(round%2))
		v[0], v[1], v[2], v[3] = byte(w), byte(i), byte(round), byte(round>>8)
		for j := 4; j < len(v); j++ {
			v[j] = byte(w*61 + i*31 + round*17 + j)
		}
		return v
	}

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			buf := make([]byte, 0, MaxValueLen)
			for n := r; !stop.Load(); n++ {
				w, i := n%writers, n/writers%keysPer
				v, ok := h.GetInto(key(w, i), buf)
				if !ok {
					continue // between its delete and its re-insert
				}
				if len(v) < 4 || !bytes.Equal(v, value(w, i, int(v[2])|int(v[3])<<8)) || int(v[0]) != w || int(v[1]) != i {
					t.Errorf("%s: read %x, which was never written to it", key(w, i), v)
					return
				}
			}
		}(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := 0; i < keysPer; i++ {
					if round > 0 {
						if err := h.Delete(key(w, i)); err != nil {
							t.Errorf("writer %d: Delete: %v", w, err)
							return
						}
					}
					if err := h.Put(key(w, i), value(w, i, round)); err != nil {
						t.Errorf("writer %d: Put: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPer; i++ {
			if v, ok := h.Get(key(w, i)); !ok || !bytes.Equal(v, value(w, i, rounds-1)) {
				t.Errorf("%s = (%x, %v) after the last round, want %x", key(w, i), v, ok, value(w, i, rounds-1))
			}
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}
