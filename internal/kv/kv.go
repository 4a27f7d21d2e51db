// Package kv defines the common key-value index contract implemented by
// HART and the three baseline persistent trees the paper evaluates against
// (WOART, ART+CoW, FPTree), plus a reference-model conformance harness the
// per-tree test suites share.
package kv

import "github.com/casl-sdsu/hart/internal/pmem"

// SizeInfo reports an index's memory footprint split by device, the
// quantity compared in the paper's Fig. 10b.
type SizeInfo struct {
	// PMBytes is the persistent-memory footprint.
	PMBytes int64
	// DRAMBytes is the volatile footprint (0 for the pure-PM trees).
	DRAMBytes int64
}

// Index is the operation set the paper benchmarks: the four basic
// operations (insertion, search, update, deletion) plus range query.
type Index interface {
	// Name identifies the implementation ("HART", "WOART", ...).
	Name() string
	// Put inserts a new record or updates an existing one (Algorithm 1).
	Put(key, value []byte) error
	// GetInto copies the value stored under key into dst, grown only if
	// its capacity is short, and returns the filled prefix, so a search
	// with a reused buffer allocates no copy of the value.
	GetInto(key, dst []byte) ([]byte, bool)
	// Update overwrites an existing record, failing if absent.
	Update(key, value []byte) error
	// Delete removes a record, failing if absent.
	Delete(key []byte) error
	// Scan visits records with start <= key < end in ascending order.
	Scan(start, end []byte, fn func(key, value []byte) bool)
	// Len returns the number of live records.
	Len() int
	// SizeInfo reports the PM/DRAM footprint.
	SizeInfo() SizeInfo
	// Arena exposes the underlying simulated PM device.
	Arena() *pmem.Arena
	// Close releases the index.
	Close() error
}

// Recoverable is implemented by the hybrid trees (HART, FPTree) that
// rebuild volatile state from PM, and measured by the Fig. 10c experiment.
type Recoverable interface {
	Index
	// Rebuild discards all volatile state and reconstructs it from PM.
	Rebuild() error
}

// Checkable is implemented by indexes with an fsck.
type Checkable interface {
	// Check validates internal invariants, returning nil when consistent.
	Check() error
}
