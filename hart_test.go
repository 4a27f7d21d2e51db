package hart_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	hart "github.com/casl-sdsu/hart"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	db, err := hart.New(hart.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("greeting"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok := db.Get([]byte("greeting"))
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = (%q,%v)", v, ok)
	}
	if err := db.Update([]byte("greeting"), []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("greeting")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete([]byte("greeting")); !errors.Is(err, hart.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestFacadeCrashRestoreRoundTrip(t *testing.T) {
	db, err := hart.New(hart.Options{CrashSimulation: true, ArenaSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("rt%05d", i)), []byte(fmt.Sprintf("%08d", i))); err != nil {
			t.Fatal(err)
		}
	}
	img, err := db.CrashImage()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := hart.Restore(img, hart.Options{CrashSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 1000 {
		t.Fatalf("restored Len = %d", db2.Len())
	}
	for i := 0; i < 1000; i += 111 {
		v, ok := db2.Get([]byte(fmt.Sprintf("rt%05d", i)))
		if !ok || string(v) != fmt.Sprintf("%08d", i) {
			t.Fatalf("restored rt%05d = (%q,%v)", i, v, ok)
		}
	}
	if err := db2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCrashImageRequiresSimulation(t *testing.T) {
	db, _ := hart.New(hart.Options{})
	if _, err := db.CrashImage(); err == nil {
		t.Fatal("CrashImage without CrashSimulation succeeded")
	}
}

func TestFacadeLatencyEmulation(t *testing.T) {
	db, err := hart.New(hart.Options{PMWriteNs: 300, PMReadNs: 300, ArenaSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("lat%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if n, st := db.Arena().Stats().Persists, db.Arena().Clock().Snapshot(); n == 0 || st.WritePenaltyNs == 0 {
		t.Fatalf("latency emulation inactive: %d persists, %+v", n, st)
	}
}

func TestFacadeScanAndConcurrency(t *testing.T) {
	db, err := hart.New(hart.Options{ArenaSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				db.Put([]byte(fmt.Sprintf("%c%c%04d", 'a'+w, 'x', i)), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	n := 0
	prev := ""
	db.Scan(nil, nil, func(k, v []byte) bool {
		if string(k) <= prev {
			t.Errorf("scan out of order")
			return false
		}
		prev = string(k)
		n++
		return true
	})
	if n != 2000 {
		t.Fatalf("scan saw %d records", n)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}
