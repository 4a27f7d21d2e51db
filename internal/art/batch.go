package art

import "sync/atomic"

// Batch is a transient copy-on-write editor over a base tree: a sequence
// of inserts that copies each node reachable from the base at most once,
// no matter how many keys land under it, and publishes the result as one
// new immutable *Tree. It is the amortised counterpart of calling
// CowInsert per key (which re-copies the root-to-leaf path every time).
//
// Ownership is an id: each batch draws one from a package-wide 64-bit
// counter and tags every node it creates or copies with it (inner.owner).
// An insert walking into a node that carries the batch's id edits it in
// place, which is safe because such a node is reachable only from this
// batch's private root until Commit. Nodes of the base tree carry another
// id — an earlier batch's, or 0 — and are never edited, so the base stays
// published and readable throughout. Ids are never reused (the counter
// does not wrap in any run), so a tag left on a published node confers
// nothing on a later batch, and it keeps no finished Batch alive.
//
// After Commit the produced tree is immutable like any CoW-published tree;
// further Insert calls on the batch panic. A Batch is not safe for
// concurrent use; HART's recovery drives one per shard it builds, before
// the tree is published.
type Batch struct {
	root      *node
	size      int
	id        uint64
	committed bool
}

// lastBatch is the id of the most recently opened batch. The first batch
// gets 1: 0 tags the nodes no batch owns.
var lastBatch atomic.Uint64

// BeginBatch opens a batch over t. t itself is never modified.
func (t *Tree) BeginBatch() *Batch {
	return &Batch{root: t.root, size: t.size, id: lastBatch.Add(1)}
}

// Commit freezes the batch and returns its state as an immutable tree.
// The batch cannot be used afterwards.
func (b *Batch) Commit() *Tree {
	b.committed = true
	return &Tree{root: b.root, size: b.size}
}

// Insert stores val under key in the batch's working state, returning the
// previous value if the key was present. The key bytes are copied. It
// panics on a key longer than MaxKeyLen.
func (b *Batch) Insert(key []byte, val uint64) (old uint64, updated bool) {
	if b.committed {
		panic("art: Insert on committed Batch")
	}
	b.root, old, updated = insert(b.root, key, 0, val, b.id)
	if !updated {
		b.size++
	}
	return old, updated
}
