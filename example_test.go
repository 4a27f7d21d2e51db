package hart_test

import (
	"errors"
	"fmt"
	"slices"

	hart "github.com/casl-sdsu/hart"
)

// The basic lifecycle: create, write, read, scan, delete.
func Example() {
	db, err := hart.New(hart.Options{})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	db.Put([]byte("apple"), []byte("red"))
	db.Put([]byte("banana"), []byte("yellow"))
	db.Put([]byte("cherry"), []byte("dark-red"))

	if v, ok := db.Get([]byte("banana")); ok {
		fmt.Printf("banana: %s\n", v)
	}

	db.Scan([]byte("a"), []byte("c"), func(k, v []byte) bool {
		fmt.Printf("%s=%s\n", k, v)
		return true
	})

	db.Delete([]byte("apple"))
	fmt.Println("records:", db.Len())

	// Output:
	// banana: yellow
	// apple=red
	// banana=yellow
	// records: 2
}

// Durability: take the persistent-memory image a power failure would
// leave behind, then recover a new index from it.
func ExampleRestore() {
	db, err := hart.New(hart.Options{CrashSimulation: true, ArenaSize: 4 << 20})
	if err != nil {
		panic(err)
	}
	db.Put([]byte("survives"), []byte("yes"))

	img, err := db.CrashImage() // simulated power failure
	if err != nil {
		panic(err)
	}

	recovered, err := hart.Restore(img, hart.Options{})
	if err != nil {
		panic(err)
	}
	v, _ := recovered.Get([]byte("survives"))
	fmt.Printf("%s\n", v)
	// Output: yes
}

// PM latency emulation: the paper's 600/300 configuration charges the
// PM-DRAM latency gap on every persist and cache-missing PM read.
func ExampleOptions_latency() {
	db, err := hart.New(hart.Options{
		PMWriteNs: 600, // paper's 600/300 configuration
		PMReadNs:  300,
		ArenaSize: 4 << 20,
	})
	if err != nil {
		panic(err)
	}
	db.Put([]byte("k"), []byte("v"))
	st := db.Arena().Clock().Snapshot()
	fmt.Println("persists charged:", st.WritePenaltyNs > 0)
	// Output: persists charged: true
}

// The store's superblock records HashKeyLen: a restore that leaves it
// zero adopts it, and one that names another is refused.
func ExampleOptions_hashKeyLen() {
	db, err := hart.New(hart.Options{HashKeyLen: 3, CrashSimulation: true, ArenaSize: 4 << 20})
	if err != nil {
		panic(err)
	}
	db.Put([]byte("key"), []byte("value"))
	img, err := db.CrashImage()
	if err != nil {
		panic(err)
	}
	_, err = hart.Restore(slices.Clone(img), hart.Options{HashKeyLen: 2})
	fmt.Println("HashKeyLen 2 refused:", errors.Is(err, hart.ErrGeometryMismatch))
	db2, err := hart.Restore(img, hart.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("adopted HashKeyLen:", db2.Options().HashKeyLen)
	// Output:
	// HashKeyLen 2 refused: true
	// adopted HashKeyLen: 3
}
