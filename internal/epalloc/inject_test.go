package epalloc

import (
	"errors"
	"testing"
)

func TestFaultInjectorsCountdown(t *testing.T) {
	_, al := newAlloc(t, 1<<20)

	// n=1: one success, then the injected fault, then disarmed again.
	al.FailAllocAfter(1)
	p, err := al.AllocStripe(0, 0)
	if err != nil {
		t.Fatalf("first AllocStripe under FailAllocAfter(1): %v", err)
	}
	if _, err := al.AllocStripe(0, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("second AllocStripe = %v, want ErrInjected", err)
	}
	if _, err := al.AllocStripe(0, 0); err != nil {
		t.Fatalf("injector not one-shot: %v", err)
	}

	al.FailSetBitAfter(0)
	if err := al.SetBit(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("SetBit = %v, want ErrInjected", err)
	}
	if err := al.SetBit(p); err != nil {
		t.Fatalf("SetBit after trip: %v", err)
	}

	al.FailClearBitAfter(0)
	if err := al.Retire(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("Retire = %v, want ErrInjected", err)
	}
	al.FailClearBitAfter(0)
	if err := al.Release(p); !errors.Is(err, ErrInjected) {
		t.Fatalf("Release = %v, want ErrInjected", err)
	}

	al.FailSetBitAfter(3)
	al.DisarmFaults()
	if err := al.SetBit(p); err != nil {
		t.Fatalf("SetBit after DisarmFaults: %v", err)
	}
}

func TestCheckQuiescentCatchesInFlightSlot(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	p, err := al.AllocStripe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Between AllocStripe and SetBit the allocator is not quiescent (the slot is
	// volatile-in-flight), but plain Check must still pass.
	if err := al.Check(); err != nil {
		t.Fatalf("Check with in-flight slot: %v", err)
	}
	if err := al.CheckQuiescent(); err == nil {
		t.Fatal("CheckQuiescent missed an in-flight slot")
	}
	if err := al.SetBit(p); err != nil {
		t.Fatal(err)
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatalf("CheckQuiescent after commit: %v", err)
	}
}

func TestCheckQuiescentCatchesArmedULog(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	u := al.GetUpdateLog(0)
	u.Commit(1024, 2048, 4096, 5)
	if err := al.CheckQuiescent(); err == nil {
		t.Fatal("CheckQuiescent missed an armed update log")
	}
	u.Reclaim()
	if err := al.CheckQuiescent(); err != nil {
		t.Fatalf("CheckQuiescent after Reclaim: %v", err)
	}

	// A busy-but-unarmed slot (claimed, never armed, never reclaimed) is
	// also a quiescence violation: the pool has shrunk.
	_ = al.GetUpdateLog(0)
	if err := al.CheckQuiescent(); err == nil {
		t.Fatal("CheckQuiescent missed a busy ulog slot")
	}
}
