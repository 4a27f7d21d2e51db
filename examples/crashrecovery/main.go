// Crash recovery: demonstrates HART's durability contract on simulated
// persistent memory — what survives a power failure, how recovery rebuilds
// the DRAM half (Algorithm 7), and how EPallocator's bitmaps prevent
// persistent memory leaks after a crash in the middle of an insertion.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"

	hart "github.com/casl-sdsu/hart"
)

func main() {
	// CrashSimulation maintains a durable view alongside the volatile
	// one, exactly like real PM behind a CPU cache.
	db, err := hart.New(hart.Options{CrashSimulation: true, ArenaSize: 16 << 20})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("phase 1: load 10,000 records")
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("user%05d", i)
		v := fmt.Sprintf("v%08d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			log.Fatal(err)
		}
	}

	// Power fails now. CrashImage returns exactly the bytes the PM medium
	// holds: everything persisted survives; unflushed cache lines do not.
	img, err := db.CrashImage()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: power failure (image: %.1f MB)\n", float64(len(img))/(1<<20))

	// Recovery: attach the image, complete any interrupted update logs,
	// and rebuild the hash directory plus all ART internal nodes by
	// walking the leaf chunks (Algorithm 7). Note that recovery is much
	// cheaper than the original build: no PM allocation, no persists.
	db2, err := hart.Restore(img, hart.Options{CrashSimulation: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 3: recovered %d records into %d ARTs\n", db2.Len(), db2.NumARTs())

	// Verify every record came back.
	for i := 0; i < 10000; i += 997 {
		k := fmt.Sprintf("user%05d", i)
		v, ok := db2.Get([]byte(k))
		if !ok || string(v) != fmt.Sprintf("v%08d", i) {
			log.Fatalf("record %s lost or damaged: (%q, %v)", k, v, ok)
		}
	}
	if err := db2.Check(); err != nil {
		log.Fatalf("post-recovery fsck: %v", err)
	}
	fmt.Println("phase 4: fsck clean — no lost records, no persistent leaks")

	// Leak prevention in action: crash between an insertion's value
	// commit (Algorithm 1 line 14) and its leaf commit (line 18) leaves a
	// committed value referenced only by an uncommitted leaf slot. The
	// value here is too long for the leaf (more than 8 bytes), so it has a
	// value object of its own to strand; the key lands in the shard the
	// load filled, whose chunks are linked, so the insert's four persists
	// are all there is: value, leaf, value bit, leaf bit. The arena injects
	// a crash at the last of them.
	fmt.Println("phase 5: inject a crash mid-insertion")
	db2.Arena().FailAfterPersists(3) // value, leaf and value bit land; the leaf bit does not
	func() {
		defer func() { recover() }() // the injected crash panics
		_ = db2.Put([]byte("user-torn"), []byte("half-written"))
	}()
	db2.Arena().DisarmCrash()

	img2, err := db2.CrashImage()
	if err != nil {
		log.Fatal(err)
	}
	db3, err := hart.Restore(img2, hart.Options{CrashSimulation: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, ok := db3.Get([]byte("user-torn")); ok {
		log.Fatal("torn insert became visible!")
	}
	fmt.Printf("phase 6: torn insert invisible after recovery (%d records, %d orphan value reclaimed)\n",
		db3.Len(), db3.LastRecoveryStats().OrphanValues)

	// The orphaned value object is back in the pool already: recovery's
	// orphan sweep releases every committed value that no live leaf
	// references (the job of EPMalloc's repair, Algorithm 2 lines 12-16,
	// done once at Open instead of at each slot's reuse). The fsck rejects
	// any such value, so a clean check — before and after the slot is
	// refilled — proves the space came back.
	if err := db3.Check(); err != nil {
		log.Fatalf("leak check failed: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := db3.Put([]byte(fmt.Sprintf("refill%04d", i)), []byte("x")); err != nil {
			log.Fatal(err)
		}
	}
	if err := db3.Check(); err != nil {
		log.Fatalf("leak check failed: %v", err)
	}
	fmt.Println("phase 7: slot reused, orphan value reclaimed — no leak. done.")
}
