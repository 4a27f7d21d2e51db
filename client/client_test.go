package client

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/internal/server"
)

// startServer runs an in-process hartd over the given store and returns
// its address. Shutdown (but not store close — callers own that, to
// control the drain → Close ordering) happens at test cleanup.
func startServer(t *testing.T, db *hart.DB) (string, *server.Server) {
	t.Helper()
	s := server.New(db.HART, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), s
}

func newMemServer(t *testing.T) string {
	t.Helper()
	db, err := hart.New(hart.Options{})
	if err != nil {
		t.Fatalf("hart.New: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	addr, _ := startServer(t, db)
	return addr
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientBasic(t *testing.T) {
	c := dialT(t, newMemServer(t))

	if err := c.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := c.Get([]byte("alpha"))
	if err != nil || string(v) != "one" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := c.Put([]byte("alpha"), []byte("two")); err != nil {
		t.Fatalf("update: %v", err)
	}
	if v, _ := c.Get([]byte("alpha")); string(v) != "two" {
		t.Fatalf("after update: %q", v)
	}
	if err := c.Delete([]byte("alpha")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v, want ErrNotFound", err)
	}
	if err := c.Delete([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}

	// Validation errors map to their exported sentinels.
	if err := c.Put([]byte("k"), nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty value: %v, want ErrBadRequest", err)
	}
	if err := c.Put(bytes.Repeat([]byte("x"), 100), []byte("v")); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key: %v, want ErrKeyTooLong", err)
	}

	// PutBatch + Scan + Stats.
	var recs []Record
	for i := 0; i < 20; i++ {
		recs = append(recs, Record{
			Key:   []byte(fmt.Sprintf("scan-%02d", i)),
			Value: []byte(fmt.Sprintf("val-%02d", i)),
		})
	}
	if n, err := c.PutBatch(recs); err != nil || n != 20 {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	page, more, err := c.Scan([]byte("scan-05"), []byte("scan-15"), 0)
	if err != nil || more || len(page) != 10 {
		t.Fatalf("Scan = %d records, more=%v, %v", len(page), more, err)
	}
	if string(page[0].Key) != "scan-05" || string(page[9].Key) != "scan-14" {
		t.Fatalf("Scan bounds: %q..%q", page[0].Key, page[9].Key)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Records != 20 || st.Server["conns_accepted"] == 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestClientPipeline(t *testing.T) {
	c := dialT(t, newMemServer(t))
	p := c.Pipeline()
	const N = 200
	for i := 0; i < N; i++ {
		if err := p.Put([]byte(fmt.Sprintf("pipe-%03d", i)), []byte(fmt.Sprintf("pv-%03d", i))); err != nil {
			t.Fatalf("queue put: %v", err)
		}
	}
	res, err := p.Exec()
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("pipelined put %d: %v", i, r.Err)
		}
	}
	// Reuse after reset: interleave gets and a failing op; results must
	// line up positionally.
	p.Get([]byte("pipe-007"))
	p.Get([]byte("no-such-key"))
	p.Delete([]byte("pipe-000"))
	p.Get([]byte("pipe-199"))
	res, err = p.Exec()
	if err != nil {
		t.Fatalf("Exec 2: %v", err)
	}
	if res[0].Err != nil || string(res[0].Value) != "pv-007" {
		t.Fatalf("res[0] = %q, %v", res[0].Value, res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrNotFound) {
		t.Fatalf("res[1] = %v, want ErrNotFound", res[1].Err)
	}
	if res[2].Err != nil {
		t.Fatalf("res[2] = %v", res[2].Err)
	}
	if res[3].Err != nil || string(res[3].Value) != "pv-199" {
		t.Fatalf("res[3] = %q, %v", res[3].Value, res[3].Err)
	}
}

// TestScanAllPaging pushes past the server's page cap so ScanAll has to
// stitch multiple pages, and checks global key order across the seams.
func TestScanAllPaging(t *testing.T) {
	c := dialT(t, newMemServer(t))
	const N = 5000 // > wire.MaxScanPage (4096)
	recs := make([]Record, N)
	for i := range recs {
		recs[i] = Record{
			Key:   []byte(fmt.Sprintf("page-%05d", i)),
			Value: []byte{byte(i), byte(i >> 8)},
		}
	}
	if n, err := c.PutBatch(recs); err != nil || n != N {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	seen := 0
	var prev []byte
	err := c.ScanAll(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("order violation at %d: %q !< %q", seen, prev, k)
		}
		prev = append(prev[:0], k...)
		seen++
		return true
	})
	if err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	if seen != N {
		t.Fatalf("ScanAll saw %d records, want %d", seen, N)
	}
}

// TestConcurrentClientsDurability is the end-to-end battery from the
// issue: 8 concurrent clients hammer one file-backed server with mixed
// Put/Get/Delete/Scan, each recording exactly what the server
// acknowledged; then the server drains, the store closes, and a fresh
// hart.Open of the same file must show every acknowledged write — and
// a clean-shutdown flag. Run under -race this also exercises the
// server pipeline's synchronization end to end.
func TestConcurrentClientsDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wire.hart")
	db, err := hart.Open(path, hart.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	addr, srv := startServer(t, db)

	const (
		clients = 8
		opsPer  = 400
	)
	type state struct {
		live map[string]string // acked puts not later acked-deleted
	}
	states := make([]state, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		states[ci].live = map[string]string{}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			st := &states[ci]
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("c%d-k%03d", ci, i%97)
				val := fmt.Sprintf("c%d-v%05d", ci, i)
				switch i % 7 {
				case 0, 1, 2, 3: // mostly writes
					if err := c.Put([]byte(key), []byte(val)); err != nil {
						errCh <- fmt.Errorf("client %d put: %w", ci, err)
						return
					}
					st.live[key] = val
				case 4:
					want, exists := st.live[key]
					v, err := c.Get([]byte(key))
					if exists && (err != nil || string(v) != want) {
						errCh <- fmt.Errorf("client %d get %q = %q, %v; want %q", ci, key, v, err, want)
						return
					}
					if !exists && !errors.Is(err, ErrNotFound) {
						errCh <- fmt.Errorf("client %d get absent %q: %v", ci, key, err)
						return
					}
				case 5:
					err := c.Delete([]byte(key))
					_, exists := st.live[key]
					if exists && err != nil {
						errCh <- fmt.Errorf("client %d delete %q: %w", ci, key, err)
						return
					}
					if !exists && !errors.Is(err, ErrNotFound) {
						errCh <- fmt.Errorf("client %d delete absent %q: %v", ci, key, err)
						return
					}
					delete(st.live, key)
				case 6:
					prefix := fmt.Sprintf("c%d-", ci)
					if _, _, err := c.Scan([]byte(prefix), []byte(prefix+"~"), 50); err != nil {
						errCh <- fmt.Errorf("client %d scan: %w", ci, err)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Drain the server, then close the store: clean-flag ordering.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reattach: every acknowledged write must be there, and the image
	// must be marked clean.
	db2, err := hart.Open(path, hart.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !db2.LastRecoveryStats().WasClean {
		t.Fatal("store not marked clean after drained shutdown")
	}
	total := 0
	for ci := range states {
		for key, want := range states[ci].live {
			v, ok := db2.Get([]byte(key))
			if !ok || string(v) != want {
				t.Fatalf("acked write lost after reopen: %q = %q (ok=%v), want %q", key, v, ok, want)
			}
			total++
		}
	}
	if db2.Len() != total {
		t.Fatalf("reopened store has %d records, acked state has %d", db2.Len(), total)
	}
	t.Logf("durability: %d acked records verified across %d clients", total, clients)
}

// TestClientAfterServerGone pins failure behavior: once the server is
// gone, in-flight and subsequent calls fail with ErrConnClosed rather
// than hanging.
func TestClientAfterServerGone(t *testing.T) {
	db, err := hart.New(hart.Options{})
	if err != nil {
		t.Fatalf("hart.New: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	addr, srv := startServer(t, db)
	c := dialT(t, addr)

	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The server half-closed; the client's reader has seen EOF (or will
	// shortly). Subsequent calls must fail, not hang.
	if _, err := c.Get([]byte("k")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Get after shutdown: %v, want ErrConnClosed", err)
	}
	if err := c.Put([]byte("k2"), []byte("v2")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Put after shutdown: %v, want ErrConnClosed", err)
	}
}

// TestPipelineExecAllocs pins the cost of a burst: a 64-request Exec,
// half Gets and half Puts, allocates one pending entry's worth — the
// results and one value arena — plus what the in-process server's side of
// the round trip allocates, at most 16 objects in all; queueing a request
// allocates nothing.
func TestPipelineExecAllocs(t *testing.T) {
	c := dialT(t, newMemServer(t))
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-%02d", i))
		if err := c.Put(keys[i], []byte("value-08")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	p := c.Pipeline()
	allocs := testing.AllocsPerRun(200, func() {
		for i, k := range keys {
			if i%2 == 0 {
				p.Get(k)
			} else {
				p.Put(k, []byte("value-08"))
			}
		}
		res, err := p.Exec()
		if err != nil || len(res) != len(keys) || string(res[0].Value) != "value-08" {
			t.Fatalf("Exec: %d results, %v", len(res), err)
		}
	})
	if allocs > 16 {
		t.Fatalf("64-request Exec: %v allocations, want at most 16", allocs)
	}
	t.Logf("64-request Exec: %v allocations", allocs)

	q := (&Client{}).Pipeline()
	key, val := []byte("alloc-key"), []byte("value-08")
	for _, op := range []struct {
		name  string
		queue func() error
	}{
		{"Get", func() error { return q.Get(key) }},
		{"Put", func() error { return q.Put(key, val) }},
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if q.Len() == 64 {
				q.reset()
			}
			op.queue()
		})
		if allocs != 0 {
			t.Fatalf("Pipeline.%s: %v allocations per request, want 0", op.name, allocs)
		}
	}
}

// TestPipelineLargerThanInFlight ships one Exec of more requests than the
// client keeps in flight: an Exec is one pending entry however long it is,
// so the reader drains its responses while the burst is still being written.
func TestPipelineLargerThanInFlight(t *testing.T) {
	c := dialT(t, newMemServer(t))
	const N = maxInFlight + 904
	p := c.Pipeline()
	for i := 0; i < N; i++ {
		p.Put([]byte(fmt.Sprintf("big-%05d", i)), []byte(fmt.Sprintf("v%05d", i)))
	}
	type outcome struct {
		res []Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := p.Exec()
		done <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("Exec of %d requests still blocked after 30 s", N)
	}
	if o.err != nil || len(o.res) != N {
		t.Fatalf("Exec = %d results, %v", len(o.res), o.err)
	}
	for i, r := range o.res {
		if r.Err != nil {
			t.Fatalf("put %d: %v", i, r.Err)
		}
	}
	if v, err := c.Get([]byte(fmt.Sprintf("big-%05d", N-1))); err != nil || string(v) != fmt.Sprintf("v%05d", N-1) {
		t.Fatalf("Get last = %q, %v", v, err)
	}
}

// TestSharedClientBursts has 8 goroutines share one Client, each mixing
// single Gets with Pipelines of 1–200 Gets and Puts, and checking every
// value against its own key: pending entries of every size interleave on
// the connection, and a response matched to the wrong entry or slot shows
// as a value for another key. Run under -race.
func TestSharedClientBursts(t *testing.T) {
	c := dialT(t, newMemServer(t))
	const keys = 512
	key := func(i int) []byte { return []byte(fmt.Sprintf("shared-%03d", i)) }
	// Values differ in length as well as content, 6 to 14 bytes.
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%04d%s", i, strings.Repeat(".", i%9))) }
	recs := make([]Record, keys)
	for i := range recs {
		recs[i] = Record{Key: key(i), Value: val(i)}
	}
	if n, err := c.PutBatch(recs); err != nil || n != keys {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			p := c.Pipeline()
			idx := make([]int, 0, 200)
			for iter := 0; iter < 40; iter++ {
				if rng.Intn(3) == 0 {
					i := rng.Intn(keys)
					if v, err := c.Get(key(i)); err != nil || !bytes.Equal(v, val(i)) {
						t.Errorf("goroutine %d: Get %q = %q, %v", g, key(i), v, err)
						return
					}
					continue
				}
				idx = idx[:0]
				for n := 1 + rng.Intn(200); len(idx) < n; {
					i := rng.Intn(keys)
					if rng.Intn(2) == 0 {
						p.Get(key(i))
						idx = append(idx, i)
					} else {
						p.Put(key(i), val(i))
						idx = append(idx, -1)
					}
				}
				res, err := p.Exec()
				if err != nil || len(res) != len(idx) {
					t.Errorf("goroutine %d: Exec = %d results, %v", g, len(res), err)
					return
				}
				for j, i := range idx {
					if res[j].Err != nil || (i >= 0 && !bytes.Equal(res[j].Value, val(i))) {
						t.Errorf("goroutine %d: slot %d of %d (key %d) = %q, %v", g, j, len(idx), i, res[j].Value, res[j].Err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
