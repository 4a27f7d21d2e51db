package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/casl-sdsu/hart/internal/hashdir"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// TestAdversarialCrashRecovery is the heavyweight durability fuzz: random
// operation streams are crashed at random persist counts, and — unlike
// the deterministic crash tests — each unflushed dirty cache line
// *independently* survives with some probability, modelling spontaneous
// cache evictions. HART's protocols must not depend on unflushed data
// vanishing: ordering comes from persist boundaries alone, so recovery
// must still produce a consistent, leak-free image.
func TestAdversarialCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial fuzz in -short mode")
	}
	for trial := 0; trial < 40; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}

		committed := map[string]string{}
		inFlight := map[string]bool{}
		crashAt := int64(rng.Intn(3000) + 1)
		h.Arena().FailAfterPersists(crashAt)

		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
				}
			}()
			for i := 0; ; i++ {
				k := fmt.Sprintf("%c%c%04d", 'a'+rng.Intn(3), 'a'+rng.Intn(3), rng.Intn(400))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // put
					v := mixedValue("v%07d", i)
					inFlight[k] = true
					if err := h.Put([]byte(k), []byte(v)); err != nil {
						t.Error(err)
						return
					}
					committed[k] = v
					delete(inFlight, k)
				case 5, 6: // update existing (if any)
					if _, ok := committed[k]; !ok {
						continue
					}
					v := mixedValue("u%06d", i+1)
					inFlight[k] = true
					if err := h.Update([]byte(k), []byte(v)); err != nil {
						t.Error(err)
						return
					}
					committed[k] = v
					delete(inFlight, k)
				case 7, 8: // delete
					inFlight[k] = true
					if err := h.Delete([]byte(k)); err == nil {
						delete(committed, k)
					}
					delete(inFlight, k)
				default: // read
					h.Get([]byte(k))
				}
			}
		}()
		h.Arena().DisarmCrash()

		// Adversarial survival: each dirty line independently survives
		// with probability drawn per trial (0 = strict, 1 = everything).
		prob := []float64{0, 0.25, 0.5, 0.75, 1}[trial%5]
		img, err := h.Arena().Crash(pmem.Config{Tracking: true},
			pmem.CrashOptions{KeepDirtyProb: prob, Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Open(img, Options{})
		if err != nil {
			t.Fatalf("trial %d (prob %.2f): recovery: %v", trial, prob, err)
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("trial %d (prob %.2f): fsck: %v", trial, prob, err)
		}
		// Every committed record not touched by the in-flight op must be
		// present with its exact value.
		for k, v := range committed {
			if inFlight[k] {
				continue
			}
			got, ok := h2.Get([]byte(k))
			if !ok || string(got) != v {
				t.Fatalf("trial %d (prob %.2f): committed %q = (%q,%v), want %q",
					trial, prob, k, got, ok, v)
			}
		}
		// The store must remain fully operational.
		for i := 0; i < 100; i++ {
			if err := h2.Put([]byte(fmt.Sprintf("post%04d", i)), []byte("p")); err != nil {
				t.Fatalf("trial %d: post-recovery put: %v", trial, err)
			}
		}
		if err := h2.Check(); err != nil {
			t.Fatalf("trial %d: fsck after refill: %v", trial, err)
		}
	}
}

// TestDoubleCrashRecovery crashes, recovers, immediately crashes the
// recovered instance mid-operation, and recovers again — recovery itself
// must be crash-safe (its only PM writes are log completions and sweeps).
func TestDoubleCrashRecovery(t *testing.T) {
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		mustPut(t, h, fmt.Sprintf("dc%04d", i), "v1")
	}
	// Crash mid-update so recovery has an armed update log to complete.
	h.Arena().FailAfterPersists(4)
	func() {
		defer func() { recover() }()
		h.Update([]byte("dc0100"), []byte("v2"))
	}()
	h.Arena().DisarmCrash()
	img, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}

	// First recovery, itself crashed at each early persist boundary.
	for fail := int64(0); fail < 6; fail++ {
		arena, err := pmem.Attach(append([]byte(nil), img...), pmem.Config{Size: int64(len(img)), Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		arena.FailAfterPersists(fail)
		var h2 *HART
		func() {
			defer func() { recover() }()
			h2, _ = Open(arena, Options{})
		}()
		arena.DisarmCrash()
		img2Arena := arena
		if h2 != nil {
			img2Arena = h2.Arena()
		}
		img2, err := img2Arena.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h3, err := Open(img2, Options{})
		if err != nil {
			t.Fatalf("fail=%d: second recovery: %v", fail, err)
		}
		if err := h3.Check(); err != nil {
			t.Fatalf("fail=%d: fsck after double crash: %v", fail, err)
		}
		if got, ok := h3.Get([]byte("dc0100")); !ok || (string(got) != "v1" && string(got) != "v2") {
			t.Fatalf("fail=%d: dc0100 = (%q,%v)", fail, got, ok)
		}
		for i := 0; i < 500; i++ {
			if i == 100 {
				continue
			}
			if got, ok := h3.Get([]byte(fmt.Sprintf("dc%04d", i))); !ok || string(got) != "v1" {
				t.Fatalf("fail=%d: dc%04d damaged: (%q,%v)", fail, i, got, ok)
			}
		}
	}
}

// FuzzSuperblock feeds arbitrary bytes as the label area through
// readSuperblock and adoptGeometry, the checks Open runs before it writes
// anything. Neither may panic, and the pair may accept only a format-4
// superblock with kh 1 to hashdir.MaxKeyLen and the object-class table
// {24, 40, 16}.
func FuzzSuperblock(f *testing.F) {
	h, err := New(Options{ArenaSize: 1 << 20, HashKeyLen: 3})
	if err != nil {
		f.Fatal(err)
	}
	fresh := make([]byte, pmem.LabelSize)
	h.Arena().ReadAt(sbBase, fresh)
	f.Add(fresh)
	for _, poke := range []struct{ off, val int }{
		{sbOffHashKeyLen, 0}, {sbOffHashKeyLen, 4}, {sbOffVersion, 3},
		{sbOffNumClasses, 2}, {sbOffClasses, 40}, {sbOffClasses + 16, 8},
	} {
		b := slices.Clone(fresh)
		binary.LittleEndian.PutUint64(b[poke.off:], uint64(poke.val))
		f.Add(b)
	}

	arena, err := pmem.New(pmem.Config{Size: pmem.HeaderSize})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		label := make([]byte, pmem.LabelSize)
		copy(label, data)
		arena.WriteAt(sbBase, label)
		sb, err := readSuperblock(arena)
		if err != nil {
			return
		}
		opts, err := adoptGeometry(Options{}, sb)
		if err != nil {
			return
		}
		word := func(off int) uint64 { return binary.LittleEndian.Uint64(label[off:]) }
		if word(sbOffMagic) != sbMagic || word(sbOffVersion) != FormatVersion {
			t.Fatalf("accepted magic %#x version %d", word(sbOffMagic), word(sbOffVersion))
		}
		if opts.HashKeyLen < 1 || opts.HashKeyLen > hashdir.MaxKeyLen || uint64(opts.HashKeyLen) != word(sbOffHashKeyLen) {
			t.Fatalf("accepted kh %d from word %d", opts.HashKeyLen, word(sbOffHashKeyLen))
		}
		if n, c0, c1, c2 := word(sbOffNumClasses), word(sbOffClasses), word(sbOffClasses+8), word(sbOffClasses+16); n != 3 || c0 != 24 || c1 != 40 || c2 != 16 {
			t.Fatalf("accepted class table: count %d, sizes %d, %d, %d", n, c0, c1, c2)
		}
	})
}
