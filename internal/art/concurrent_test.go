package art

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadersBesideInPlaceWriter runs Get and Prefetch with no lock beside
// one writer that edits a Root in place, taking one node through NODE4,
// NODE16, NODE48 and NODE256 and back, round after round, by Insert and
// Delete alone: edges added and removed in place in the wide kinds, the
// node copied to grow, shrink or change its terminator, and the slot above
// it swung. The node's terminator, two of its children — one a leaf, one
// a subtree — and a key beside the node are present throughout: a reader
// must find each with its value, whatever step of which edit it meets.
// Keys that are absent throughout, some ending inside the churning node's
// path, some under its edges, must never be found. Run it under -race:
// every word a reader loads is one the writer changes, if at all, by an
// atomic store, and the detector holds both sides to that.
func TestReadersBesideInPlaceWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	var r Root
	stable := map[string]uint64{
		"churn":          1, // the churning node's terminator
		"churn\x00":      2, // a leaf child
		"churn\xffsub-a": 3, // a subtree child
		"churn\xffsub-b": 4,
		"churm":          5, // beside the node, under the split above it
	}
	for k, v := range stable {
		r.Insert([]byte(k), v)
	}
	absent := [][]byte{[]byte("chur"), []byte("churn\xff"), []byte("churn\xffsub"), []byte("churo"), []byte("churn\x01x")}
	for b := 1; b < 255; b += 37 {
		absent = append(absent, []byte{'c', 'h', 'u', 'r', 'n', byte(b), 'z'})
	}
	var want uint64
	probes := make([][]byte, 0, len(stable)+len(absent))
	for k, v := range stable {
		probes = append(probes, []byte(k))
		want += v
	}
	probes = append(probes, absent...)
	roots := make([]*Root, len(probes))
	for i := range roots {
		roots[i] = &r
	}

	var done atomic.Bool
	var readers, started sync.WaitGroup
	var walks atomic.Int64
	for g := 0; g < 3; g++ {
		readers.Add(1)
		started.Add(1)
		go func() {
			defer readers.Done()
			started.Done()
			for !done.Load() {
				walks.Add(1)
				for k, v := range stable {
					if got, ok := r.Get([]byte(k)); !ok || got != v {
						t.Errorf("Get(%q) = %d,%v beside the writer, want %d", k, got, ok, v)
						return
					}
				}
				for _, k := range absent {
					if got, ok := r.Get(k); ok {
						t.Errorf("Get(%q) = %d beside the writer, a key never stored", k, got)
						return
					}
				}
				if got := Prefetch(roots, probes); got != want {
					t.Errorf("Prefetch beside the writer sums to %d, want %d", got, want)
					return
				}
			}
		}()
	}
	started.Wait()

	const rounds = 60
	key := func(b int) []byte { return []byte{'c', 'h', 'u', 'r', 'n', byte(b)} }
	kinds := map[Kind]bool{}
	churning := func() Kind { return r.p.Load().inner().child('n').inner().kind() }
	for round := 0; round < rounds && !t.Failed(); round++ {
		// Edges 1..254, in an order that differs each round; 0 and 255
		// stay.
		order := make([]int, 0, 254)
		for i := 0; i < 254; i++ {
			order = append(order, 1+(i*97+round*31)%254)
		}
		for _, b := range order {
			if _, updated := r.Insert(key(b), uint64(b)); updated {
				t.Fatalf("round %d: Insert(%q) found it present", round, key(b))
			}
			kinds[churning()] = true
		}
		// An update of every edge's leaf swings its slot in place.
		for _, b := range order[:64] {
			r.Insert(key(b), uint64(b)+1000)
		}
		for i := len(order) - 1; i >= 0; i-- {
			if _, ok := r.Delete(key(order[i])); !ok {
				t.Fatalf("round %d: Delete(%q) found nothing", round, key(order[i]))
			}
			kinds[churning()] = true
		}
	}
	done.Store(true)
	readers.Wait()
	t.Logf("%d reader passes beside %d rounds", walks.Load(), rounds)
	for _, k := range []Kind{Kind4, Kind16, Kind48, Kind256} {
		if !kinds[k] {
			t.Errorf("the churning node was never a %v", k)
		}
	}
	if got := checkNodes(t, r.p.Load()); got != len(stable) {
		t.Fatalf("%d records at the end, want %d", got, len(stable))
	}
	for k, v := range stable {
		if got, ok := r.Get([]byte(k)); !ok || got != v {
			t.Fatalf("Get(%q) = %d,%v at the end, want %d", k, got, ok, v)
		}
	}
}
