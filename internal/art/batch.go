package art

// Batch builds a tree from empty in private: no reader can reach it
// until Commit or Publish hands it over, so every insert edits its nodes
// in place and a node is allocated only when the tree's shape needs one
// more. It is the bulk counterpart of Root.Insert, which copies a node
// whenever a reader could see the change. HART's recovery drives one per
// shard it builds.
//
// A Batch is not safe for concurrent use, and after Commit or Publish
// further Insert calls panic.
type Batch struct {
	root      *node
	size      int
	committed bool
}

// BeginBatch opens a batch over t, which must be empty: a batch edits in
// place, and a node of a non-empty tree may be read by its holder.
func (t *Tree) BeginBatch() *Batch {
	if t.root != nil {
		panic("art: BeginBatch on a non-empty tree")
	}
	return &Batch{}
}

// Commit freezes the batch and returns its state as an immutable tree.
// The batch cannot be used afterwards.
func (b *Batch) Commit() *Tree {
	b.committed = true
	return &Tree{root: b.root, size: b.size}
}

// Publish freezes the batch and stores its tree in r, replacing what r
// held, with one atomic store. The batch cannot be used afterwards.
func (b *Batch) Publish(r *Root) {
	b.committed = true
	r.p.Store(b.root)
}

// Insert stores val under key in the batch's working state, returning the
// previous value if the key was present. The key bytes are copied. It
// panics on a key longer than MaxKeyLen.
func (b *Batch) Insert(key []byte, val uint64) (old uint64, updated bool) {
	if b.committed {
		panic("art: Insert on committed Batch")
	}
	b.root, old, updated = insert(b.root, key, 0, val, private)
	if !updated {
		b.size++
	}
	return old, updated
}
