package epalloc

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is the error returned by a tripped fault injector. The
// write-path error branches in package core (AllocStripe, SetBit,
// Release and Retire failures) are unreachable under normal operation — the allocator only
// fails on corruption or exhaustion — so tests use these injectors to
// prove the cleanup paths neither strand PM objects nor leave a micro-log
// slot permanently busy.
var ErrInjected = errors.New("epalloc: injected fault")

// faultCounter is a one-shot countdown: disabled at -1, armed at n >= 0,
// tripping on the (n+1)-th call and disarming itself.
type faultCounter struct{ n atomic.Int64 }

func (f *faultCounter) arm(n int64) { f.n.Store(n) }
func (f *faultCounter) disarm()     { f.n.Store(-1) }
func (f *faultCounter) tripped() bool {
	return f.n.Load() >= 0 && f.n.Add(-1) < 0
}

// FailSetBitAfter arms SetBit to return ErrInjected after n successful
// calls (n=0 fails the next call). The injector is one-shot: it disarms
// itself once tripped. Pass a negative n to disarm explicitly.
func (a *Allocator) FailSetBitAfter(n int64) { a.failSetBit.arm(n) }

// FailClearBitAfter arms the bit clear of Release and Retire to return
// ErrInjected after n successful calls, one-shot like FailSetBitAfter.
func (a *Allocator) FailClearBitAfter(n int64) { a.failClearBit.arm(n) }

// FailAllocAfter arms AllocStripe to return ErrInjected after n successful
// calls, one-shot like FailSetBitAfter.
func (a *Allocator) FailAllocAfter(n int64) { a.failAlloc.arm(n) }

// DisarmFaults disarms every fault injector.
func (a *Allocator) DisarmFaults() {
	a.failSetBit.disarm()
	a.failClearBit.disarm()
	a.failAlloc.disarm()
}
