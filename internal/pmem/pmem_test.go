package pmem

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/casl-sdsu/hart/internal/cachesim"
	"github.com/casl-sdsu/hart/internal/latency"
)

func newTracked(t *testing.T, size int64) *Arena {
	t.Helper()
	a, err := New(Config{Size: size, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsTinyArena(t *testing.T) {
	if _, err := New(Config{Size: 10}); err == nil {
		t.Fatal("New accepted a sub-header arena")
	}
}

func TestReserveAlignmentAndBounds(t *testing.T) {
	a := newTracked(t, 4096)
	p1, err := a.Reserve(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != HeaderSize {
		t.Fatalf("first reservation at %d, want %d", p1, HeaderSize)
	}
	p2, err := a.Reserve(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p2)%64 != 0 {
		t.Fatalf("aligned reservation at %d, not 64-aligned", p2)
	}
	if _, err := a.Reserve(1<<20, 8); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized reservation error = %v, want ErrOutOfMemory", err)
	}
	if _, err := a.Reserve(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment accepted")
	}
	if _, err := a.Reserve(0, 8); err == nil {
		t.Fatal("zero-size reservation accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := newTracked(t, 4096)
	p, _ := a.Reserve(128, 8)
	msg := []byte("persistent memory simulation")
	a.WriteAt(p, msg)
	buf := make([]byte, len(msg))
	a.ReadAt(p, buf)
	if !bytes.Equal(buf, msg) {
		t.Fatalf("round trip: got %q", buf)
	}
	a.Write8(p+64, 0xdeadbeefcafe)
	if got := a.Read8(p + 64); got != 0xdeadbeefcafe {
		t.Fatalf("Read8 = %x", got)
	}
	a.Write1(p+40, 0x7f)
	if got := a.Read1(p + 40); got != 0x7f {
		t.Fatalf("Read1 = %x", got)
	}
	a.WritePtr(p+72, p)
	if got := a.ReadPtr(p + 72); got != p {
		t.Fatalf("ReadPtr = %d, want %d", got, p)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	a := newTracked(t, 4096)
	for name, f := range map[string]func(){
		"nil read":    func() { a.Read8(Nil) },
		"past end":    func() { a.Read8(Ptr(4090)) },
		"write past":  func() { a.WriteAt(Ptr(4000), make([]byte, 200)) },
		"persist nil": func() { a.Persist(Nil, 8) },
		// Sub-label accesses (0 < p < LabelBase) are wild pointers into
		// the arena's own metadata; a write there would corrupt the magic
		// or the bump cursor. Regression: check used to admit them. The
		// label area [LabelBase, HeaderSize) is legitimately writable (it
		// holds the store superblock), so the floor is LabelBase.
		"header read":     func() { a.Read8(Ptr(8)) },
		"header write":    func() { a.Write8(Ptr(offCursor), 0xdead) },
		"header write1":   func() { a.Write1(Ptr(LabelBase-1), 1) },
		"header persist":  func() { a.Persist(Ptr(8), 8) },
		"straddle header": func() { a.WriteAt(Ptr(LabelBase-8), make([]byte, 16)) },
		// Unaligned word access is a program bug, not a fallback to plain
		// loads: it silently broke single-copy atomicity before.
		"unaligned read8":  func() { a.Read8(Ptr(HeaderSize + 4)) },
		"unaligned write8": func() { a.Write8(Ptr(HeaderSize+4), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCrashDropsUnpersistedWrites(t *testing.T) {
	a := newTracked(t, 8192)
	p, _ := a.Reserve(256, 64)
	a.WriteAt(p, []byte("durable....."))
	a.Persist(p, 12)
	a.WriteAt(p+128, []byte("volatile....")) // never persisted (different line)
	b, err := a.Crash(Config{Tracking: true}, CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	b.ReadAt(p, buf)
	if string(buf) != "durable....." {
		t.Fatalf("persisted data lost: %q", buf)
	}
	b.ReadAt(p+128, buf)
	if !bytes.Equal(buf, make([]byte, 12)) {
		t.Fatalf("unpersisted data survived: %q", buf)
	}
}

func TestCrashLineGranularity(t *testing.T) {
	// Persisting any byte of a line makes the whole line durable — exactly
	// like CLFLUSH. Unpersisted bytes of *other* lines vanish.
	a := newTracked(t, 8192)
	p, _ := a.Reserve(256, 64)
	a.WriteAt(p, bytes.Repeat([]byte{0xAA}, 128)) // two lines
	a.Persist(p, 1)                               // flushes line 0 only
	b, err := a.Crash(Config{Tracking: true}, CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	b.ReadAt(p, buf)
	if buf[0] != 0xAA || buf[63] != 0xAA {
		t.Fatal("line 0 not durable after persist")
	}
	if buf[64] != 0 {
		t.Fatal("line 1 became durable without persist")
	}
}

func TestCrashKeepDirtyProb(t *testing.T) {
	a := newTracked(t, 1<<16)
	p, _ := a.Reserve(1<<12, 64)
	for i := int64(0); i < 64; i++ {
		a.Write8(p+Ptr(i*64), uint64(i)+1)
	}
	// With probability 1 every dirty line survives the crash.
	b, err := a.Crash(Config{Tracking: true}, CrashOptions{KeepDirtyProb: 1, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if got := b.Read8(p + Ptr(i*64)); got != uint64(i)+1 {
			t.Fatalf("line %d lost despite KeepDirtyProb=1", i)
		}
	}
}

func TestCursorSurvivesCrash(t *testing.T) {
	a := newTracked(t, 8192)
	a.Reserve(100, 8)
	want := a.Reserved()
	b, err := a.Crash(Config{Tracking: true}, CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Reserved() != want {
		t.Fatalf("cursor after crash = %d, want %d", b.Reserved(), want)
	}
	// New reservations continue past the old cursor.
	p, err := b.Reserve(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if int64(p) < want {
		t.Fatalf("post-crash reservation %d overlaps pre-crash space", p)
	}
}

func TestCrashRequiresTracking(t *testing.T) {
	a, _ := New(Config{Size: 4096})
	if _, err := a.Crash(Config{}, CrashOptions{}); !errors.Is(err, ErrNoTracking) {
		t.Fatalf("Crash without tracking: %v", err)
	}
	if _, err := a.DurableImage(); !errors.Is(err, ErrNoTracking) {
		t.Fatalf("DurableImage without tracking: %v", err)
	}
}

func TestFailAfterPersists(t *testing.T) {
	a := newTracked(t, 8192)
	p, _ := a.Reserve(64, 64)
	a.FailAfterPersists(2)
	a.Write8(p, 1)
	a.Persist(p, 8) // ok
	a.Write8(p, 2)
	a.Persist(p, 8) // ok
	a.Write8(p, 3)
	func() {
		defer func() {
			r := recover()
			ce, ok := r.(CrashError)
			if !ok {
				t.Fatalf("panic value %v, want CrashError", r)
			}
			if ce.Persists == 0 {
				t.Fatal("CrashError has zero persist count")
			}
		}()
		a.Persist(p, 8) // must panic, leaving value 2 durable
	}()
	b, err := a.Crash(Config{Tracking: true}, CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Read8(p); got != 2 {
		t.Fatalf("durable value = %d, want 2 (third persist must not apply)", got)
	}
	// Disarm works.
	a.DisarmCrash()
	a.Persist(p, 8)
}

// TestFailAfterPersistsConcurrent pins that crash injection is exact
// under concurrent persisters: exactly n persists apply, and a goroutine
// that saw an injected crash sees one on every later persist.
func TestFailAfterPersistsConcurrent(t *testing.T) {
	const workers, per, n = 4, 200, 301
	a := newTracked(t, 1<<16)
	base, err := a.Reserve(workers*lineSize, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Persists()
	a.FailAfterPersists(n)
	applied := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := base + Ptr(w*lineSize)
			crashed := false
			for i := 0; i < per; i++ {
				a.Write8(p, uint64(i))
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(CrashError); !ok {
								t.Errorf("panic value %v, want CrashError", r)
							}
							crashed = true
						}
					}()
					a.Persist(p, 8)
					if crashed {
						t.Errorf("worker %d: persist %d applied after an injected crash", w, i)
					}
					applied[w]++
				}()
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, k := range applied {
		total += k
	}
	if total != n {
		t.Fatalf("%d persists applied under FailAfterPersists(%d)", total, n)
	}
	if got := a.Persists() - before; got != n {
		t.Fatalf("persist counter advanced %d, want %d", got, n)
	}
}

// TestCountersExactConcurrent pins that the striped counters lose nothing:
// goroutines loading, storing and persisting on disjoint pages sum to the
// exact totals.
func TestCountersExactConcurrent(t *testing.T) {
	const workers, per, page = 8, 1000, 4096
	a, err := New(Config{Size: (workers + 2) * page})
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Reserve(workers*page, page)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Stats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p Ptr) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := p + Ptr(i%(page/8)*8)
				a.Write8(q, uint64(i))
				a.Read8(q)
				a.Persist(q, 16) // 16 bytes at q%64 == 56 span two lines
			}
		}(base + Ptr(w*page))
	}
	wg.Wait()
	s := a.Stats()
	const ops = workers * per
	// Per page, every eighth word of 512 starts a two-line persist.
	const lines = ops + workers*per/8
	if d := s.Reads - before.Reads; d != ops {
		t.Errorf("reads advanced %d, want %d", d, ops)
	}
	if d := s.Writes - before.Writes; d != ops {
		t.Errorf("writes advanced %d, want %d", d, ops)
	}
	if d := s.BytesWritten - before.BytesWritten; d != 8*ops {
		t.Errorf("bytes written advanced %d, want %d", d, 8*ops)
	}
	if d := s.Persists - before.Persists; d != ops {
		t.Errorf("persists advanced %d, want %d", d, ops)
	}
	if d := s.PersistedLines - before.PersistedLines; d != lines {
		t.Errorf("persisted lines advanced %d, want %d", d, lines)
	}
}

// TestEmulationHookOnlyWhenConfigured pins that an arena without a
// latency mode or cache model has no emulation hook — its accesses never
// reach package latency or cachesim — and that either one installs it.
func TestEmulationHookOnlyWhenConfigured(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"none", Config{}, false},
		{"latency off", Config{Latency: latency.Off()}, false},
		{"latency", Config{Latency: latency.Config300x300()}, true},
		{"cache", Config{Cache: cachesim.New(1<<14, 4)}, true},
	} {
		c.cfg.Size = 1 << 16
		a, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.emu != nil; got != c.want {
			t.Errorf("%s: emulation hook installed = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLatencyAccounting(t *testing.T) {
	a, err := New(Config{
		Size:    1 << 16,
		Latency: latency.Config300x300(),
		Cache:   cachesim.New(1<<14, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := a.Reserve(256, 64)
	base, basePersists := a.Clock().Snapshot(), a.Stats().Persists
	a.Write8(p, 7)
	a.Persist(p, 8)
	s := a.Clock().Snapshot()
	if got := a.Stats().Persists; got != basePersists+1 {
		t.Fatalf("persist not counted: %d, want %d", got, basePersists+1)
	}
	if s.WritePenaltyNs <= base.WritePenaltyNs {
		t.Fatal("write penalty not charged")
	}
	// Persist flushed the line, so the next read misses and pays.
	preMiss := a.Clock().Snapshot().PMReadMisses
	a.Read8(p)
	if a.Clock().Snapshot().PMReadMisses != preMiss+1 {
		t.Fatal("post-flush read should miss")
	}
	// Second read hits (no charge).
	preMiss = a.Clock().Snapshot().PMReadMisses
	a.Read8(p)
	if a.Clock().Snapshot().PMReadMisses != preMiss {
		t.Fatal("cached read should hit")
	}
}

func TestStats(t *testing.T) {
	a := newTracked(t, 8192)
	p, _ := a.Reserve(128, 8)
	a.WriteAt(p, make([]byte, 100))
	a.Persist(p, 100)
	a.ReadAt(p, make([]byte, 10))
	s := a.Stats()
	if s.Capacity != 8192 || s.Reserved < HeaderSize+128 {
		t.Fatalf("capacity/reserved wrong: %+v", s)
	}
	if s.Writes == 0 || s.Reads == 0 || s.Persists == 0 || s.BytesWritten < 100 {
		t.Fatalf("counters not ticking: %+v", s)
	}
	if s.PersistedLines < 2 {
		t.Fatalf("100-byte persist flushed %d lines, want >= 2", s.PersistedLines)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	a := newTracked(t, 1<<20)
	const workers = 8
	ps := make([]Ptr, workers)
	for i := range ps {
		p, err := a.Reserve(1024, 64)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a.Write8(ps[w]+Ptr(8*(i%128)), uint64(w*1000+i))
				a.Persist(ps[w]+Ptr(8*(i%128)), 8)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if got := a.Read8(ps[w] + Ptr(8*((500-1)%128))); got != uint64(w*1000+499) {
			t.Fatalf("worker %d data corrupted: %d", w, got)
		}
	}
}

func TestConcurrentReserve(t *testing.T) {
	a := newTracked(t, 1<<20)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[Ptr]bool{}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p, err := a.Reserve(64, 8)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[p] {
					t.Errorf("duplicate reservation %d", p)
				}
				seen[p] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestAttachValidatesMagic(t *testing.T) {
	if _, err := Attach(make([]byte, 4096), Config{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("attach on zero image: %v", err)
	}
}

// TestAttachValidatesCapacity verifies torn-image rejection: an image
// whose header claims a different capacity than the bytes supplied (a
// truncated copy, or a grown file) must not attach.
func TestAttachValidatesCapacity(t *testing.T) {
	a := newTracked(t, 8192)
	img, err := a.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(img[:4096], Config{}); !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("attach on truncated image: %v", err)
	}
	grown := append(append([]byte(nil), img...), make([]byte, 4096)...)
	if _, err := Attach(grown, Config{}); !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("attach on grown image: %v", err)
	}
	if _, err := Attach(img, Config{}); err != nil {
		t.Fatalf("attach on intact image: %v", err)
	}
}

// TestHeaderRejectionPreservesCursor verifies the regression the
// sub-header check closes: a wild store into the header must panic
// *before* mutating anything, leaving reservations working.
func TestHeaderRejectionPreservesCursor(t *testing.T) {
	a := newTracked(t, 8192)
	before := a.Reserved()
	func() {
		defer func() { _ = recover() }()
		a.Write8(Ptr(offCursor), 1<<40)
	}()
	if got := a.Reserved(); got != before {
		t.Fatalf("cursor corrupted by rejected header write: %d != %d", got, before)
	}
	if _, err := a.Reserve(64, 8); err != nil {
		t.Fatalf("Reserve after rejected header write: %v", err)
	}
}

// TestPersistSiteLabel verifies crash-site labeling: the CrashError of an
// injected crash carries the most recent SetPersistSite label.
func TestPersistSiteLabel(t *testing.T) {
	a := newTracked(t, 8192)
	p, _ := a.Reserve(64, 8)
	a.SetPersistSite("step-one")
	a.Write8(p, 1)
	a.Persist(p, 8)
	if got := a.PersistSite(); got != "step-one" {
		t.Fatalf("PersistSite = %q, want step-one", got)
	}
	a.SetPersistSite("step-two")
	a.FailAfterPersists(0)
	var ce CrashError
	func() {
		defer func() {
			r := recover()
			var ok bool
			if ce, ok = r.(CrashError); !ok {
				t.Fatalf("expected CrashError, got %v", r)
			}
		}()
		a.Write8(p, 2)
		a.Persist(p, 8)
	}()
	if ce.Site != "step-two" {
		t.Fatalf("CrashError.Site = %q, want step-two", ce.Site)
	}
}
