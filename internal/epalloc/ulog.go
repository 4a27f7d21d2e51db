package epalloc

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// NumUpdateLogs is the size of the persistent update-log pool. The paper's
// GetMicroLog(UPDATE) hands each in-flight update its own log; HART allows
// one concurrent writer per ART, so a pool of 64 accommodates far more
// concurrency than the 16 hardware threads of the paper's testbed.
const NumUpdateLogs = 64

// ulogsPerStripe is each stripe's partition of the update-log pool: slots
// [stripe*ulogsPerStripe, (stripe+1)*ulogsPerStripe) belong to the stripe,
// claimed by a lock-free CAS on the stripe's busy word. A dry stripe
// steals from its siblings before blocking.
const ulogsPerStripe = NumUpdateLogs / NumStripes

// ulogStripeMask covers one stripe's busy bits.
const ulogStripeMask = (uint64(1) << ulogsPerStripe) - 1

// ULogSlotSize is the PM size of one update-log slot: four 8-byte fields.
// The pool is 32-byte aligned (sbULogPoolOff), so a slot never straddles a
// cache line and both Commit and Reclaim flush exactly one; at the 24-byte
// stride of format version 1 two slots in eight did straddle.
const ULogSlotSize = 32

// Update-log slot field offsets (paper Algorithm 3, whose PNewV is
// generalised to the leaf's whole new first word plus its shape byte: a
// value stored in the leaf has no object to point at).
const (
	ulogPLeafOff = 0  // address of the leaf being updated; arms the slot
	ulogPOldVOff = 8  // address of the old value object, Nil if it had none
	ulogNewWOff  = 16 // the leaf's new first word
	ulogMetaOff  = 24 // ulogComplete | the leaf's new shape byte; 0 = nothing to redo
)

// ulogComplete marks a slot's meta word as part of a whole record. The new
// word alone cannot: an inline value of zero bytes is a legal one.
const ulogComplete = 1 << 8

// ULog is one persistent update log (Algorithm 3), used as a redo log
// with a single commit record: nothing about an update is durable in the
// log until Commit persists the whole record at once, after which
// recovery completes the update from it; Reclaim disarms the slot. The
// slot is exclusively owned between GetUpdateLog and Reclaim.
type ULog struct {
	a    *Allocator
	idx  int
	base pmem.Ptr
}

// ulogPool hands out slots from the fixed persistent pool. Claims are
// lock-free CASes on per-stripe busy words; mu and cond exist only for
// the block-when-all-64-are-armed fallback, which no realistic writer
// count reaches.
type ulogPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32
	busy    [NumStripes]atomic.Uint64 // low ulogsPerStripe bits per word
	// slots are the preallocated handles, one per pool slot, filled in by
	// newAllocator: a claim hands out &slots[idx] instead of allocating,
	// keeping the logged update path heap-free. Exclusive ownership
	// between claim and Reclaim makes the sharing safe.
	slots [NumUpdateLogs]ULog
}

// GetUpdateLog claims a free update-log slot with a lock-free CAS,
// preferring the stripe's own partition and scanning the siblings when it
// is dry. Only when every slot in the pool is armed does it fall back to
// blocking on the pool condition.
func (a *Allocator) GetUpdateLog(stripe int) *ULog {
	stripe &= NumStripes - 1
	if u := a.tryClaimULog(stripe); u != nil {
		return u
	}
	p := &a.ulogs
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		if u := a.tryClaimULog(stripe); u != nil {
			return u
		}
		p.cond.Wait()
	}
}

// tryClaimULog CAS-claims the lowest free slot, scanning stripes starting
// at start. Returns nil when all 64 slots are busy.
func (a *Allocator) tryClaimULog(start int) *ULog {
	for off := 0; off < NumStripes; off++ {
		s := (start + off) & (NumStripes - 1)
		w := &a.ulogs.busy[s]
		for {
			cur := w.Load()
			free := ^cur & ulogStripeMask
			if free == 0 {
				break
			}
			bit := free & -free
			if w.CompareAndSwap(cur, cur|bit) {
				a.metrics.ULogClaims.AddStripe(s, 1)
				return &a.ulogs.slots[s*ulogsPerStripe+bits.TrailingZeros64(bit)]
			}
		}
	}
	return nil
}

// ulogAddr returns the PM base address of update-log slot i.
func (a *Allocator) ulogAddr(i int) pmem.Ptr {
	return a.sb + sbULogPoolOff + pmem.Ptr(i*ULogSlotSize)
}

// Commit writes the log record — old value, the leaf's new first word and
// shape byte, then the leaf address that arms the slot — and persists it
// once. Algorithm 3 persists its three fields separately (lines 2, 3, 6),
// but recovery resets a log whose new value is not durable, so the states
// "PLeaf only" and "PLeaf and POldV" record nothing an update needs: the
// record matters only once it is complete. The arming word is stored last
// and the slot lies within one cache line, so whatever prefix of these
// stores an early eviction makes durable, a durable PLeaf implies the rest
// of the record is durable too.
func (u *ULog) Commit(leaf, oldV pmem.Ptr, newWord uint64, shape uint8) {
	ar := u.a.arena
	ar.WritePtr(u.base+ulogPOldVOff, oldV)
	ar.Write8(u.base+ulogNewWOff, newWord)
	ar.Write8(u.base+ulogMetaOff, ulogComplete|uint64(shape))
	ar.WritePtr(u.base+ulogPLeafOff, leaf)
	ar.Persist(u.base, ULogSlotSize)
}

// clearULog zeroes and persists the slot at base, meta word first: a clear
// torn before the arming word goes reads as an armed log with nothing to
// redo, never as a record with one field missing.
func (a *Allocator) clearULog(base pmem.Ptr) {
	a.arena.Write8(base+ulogMetaOff, 0)
	a.arena.Write8(base+ulogNewWOff, 0)
	a.arena.WritePtr(base+ulogPOldVOff, pmem.Nil)
	a.arena.WritePtr(base+ulogPLeafOff, pmem.Nil)
	a.arena.Persist(base, ULogSlotSize)
}

// Reclaim disarms the log (Algorithm 3 line 11) and returns the slot to
// the pool with a single atomic clear; the pool mutex is touched only
// when a claimant is actually blocked.
func (u *ULog) Reclaim() {
	u.a.clearULog(u.base)
	p := &u.a.ulogs
	s, bit := u.idx/ulogsPerStripe, uint64(1)<<uint(u.idx%ulogsPerStripe)
	p.busy[s].And(^bit)
	// A waiter registers (waiters++) before re-scanning the busy words, so
	// if the load below sees no waiter, any future waiter will see the
	// cleared bit; if it sees one, the lock/broadcast pair cannot run
	// before the waiter is parked in Wait (which releases mu).
	if p.waiters.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// UpdateLogState is a snapshot of one armed update log for recovery.
type UpdateLogState struct {
	// Index identifies the slot (for ResetUpdateLogAt).
	Index int
	// PLeaf and POldV mirror the persistent pointer fields.
	PLeaf, POldV pmem.Ptr
	// NewWord and Shape are the first word and shape byte the update gives
	// the leaf.
	NewWord uint64
	Shape   uint8
	// Complete is false for a slot caught mid-clear (a torn Reclaim): the
	// update it served had finished or given up, and nothing is to be
	// redone.
	Complete bool
}

// PendingUpdateLogs returns every armed update log. The semantics of the
// pointers belong to HART (package core), which interprets and completes
// them during recovery.
func (a *Allocator) PendingUpdateLogs() []UpdateLogState {
	var out []UpdateLogState
	for i := 0; i < NumUpdateLogs; i++ {
		base := a.ulogAddr(i)
		leaf := a.arena.ReadPtr(base + ulogPLeafOff)
		if leaf.IsNil() {
			continue
		}
		meta := a.arena.Read8(base + ulogMetaOff)
		out = append(out, UpdateLogState{
			Index:    i,
			PLeaf:    leaf,
			POldV:    a.arena.ReadPtr(base + ulogPOldVOff),
			NewWord:  a.arena.Read8(base + ulogNewWOff),
			Shape:    uint8(meta),
			Complete: meta&ulogComplete != 0,
		})
	}
	return out
}

// ResetUpdateLogAt disarms slot i (recovery's "reset the log").
func (a *Allocator) ResetUpdateLogAt(i int) {
	a.clearULog(a.ulogAddr(i))
}
