// Package modelcheck is HART's differential crash-consistency checker.
//
// A checker run takes an operation history (randomly generated, decoded
// from fuzz bytes, or hand-written), executes it against a real store and
// a plain in-memory reference model in lockstep, and then re-executes it
// once per persist boundary with pmem's crash injection armed so that the
// store dies at that exact persist. Each crash image is recovered and the
// recovered contents are compared against the model's legal states at the
// crash point; the recovered store must also pass HART's fsck, and — in
// re-entrant mode — survive a second crash placed at every persist
// boundary of recovery itself. See DESIGN.md §6.
package modelcheck

import (
	"fmt"
	"math/rand"

	"github.com/casl-sdsu/hart/internal/core"
)

// OpKind enumerates history operations.
type OpKind int

// History operation kinds. Put covers both insert and update depending on
// whether the key exists.
const (
	OpPut OpKind = iota
	OpDelete
	OpBatch
	OpScan
	OpScanReverse
	numOpKinds
)

// Op is one step of a history.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Key and Value parameterise Put; Key alone parameterises Delete.
	Key, Value []byte
	// Batch holds PutBatch records. Duplicate keys are allowed: PutBatch
	// sorts stably, so duplicates apply in submission order and replays
	// persist identically.
	Batch []core.Record
	// Start and End bound Scan/ScanReverse (nil = unbounded).
	Start, End []byte
}

// History is an operation sequence, replayable deterministically.
type History struct {
	// Ops is the sequence.
	Ops []Op
}

// keyUniverse is the closed key set histories draw from. Small enough
// that updates and deletes hit live keys often, spread across several
// hash-directory shards (2-byte hash keys), and including keys that are
// exactly a hash key ("aa", "ab") and keys shorter than one ("a") to
// exercise the scan boundary cases. Both leaf classes are drawn: the
// 14-byte "aab-class-edge" is the longest key a 24-byte leaf holds, the
// 15-byte key after it the shortest in a 40-byte leaf, and the last key
// is MaxKeyLen long.
var keyUniverse = [][]byte{
	[]byte("a"),
	[]byte("aa"), []byte("aab"), []byte("aac"), []byte("aabcd"),
	[]byte("aab-class-edge"), []byte("aab-class-edge!"),
	[]byte("ab"), []byte("abb"),
	[]byte("ba"), []byte("bab"),
	[]byte("ca"), []byte("cab"), []byte("cabinetry-key"),
	[]byte("cabinetry-key-of-24-byte"),
}

// genValue builds a deterministic value of 1..MaxValueLen bytes.
func genValue(r *rand.Rand) []byte {
	n := 1 + r.Intn(core.MaxValueLen)
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('0' + r.Intn(75))
	}
	return v
}

// genBound returns a scan bound: nil, a universe key, or a neighbour.
func genBound(r *rand.Rand) []byte {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		k := keyUniverse[r.Intn(len(keyUniverse))]
		return append([]byte(nil), k...)
	case 2:
		k := keyUniverse[r.Intn(len(keyUniverse))]
		return append(append([]byte(nil), k...), 0)
	default:
		k := append([]byte(nil), keyUniverse[r.Intn(len(keyUniverse))]...)
		k[len(k)-1]++
		return k
	}
}

// Generate builds a pseudo-random history of n operations.
func Generate(r *rand.Rand, n int) History {
	h := History{Ops: make([]Op, 0, n)}
	for len(h.Ops) < n {
		switch p := r.Intn(100); {
		case p < 50: // Put (insert or update)
			h.Ops = append(h.Ops, Op{
				Kind:  OpPut,
				Key:   keyUniverse[r.Intn(len(keyUniverse))],
				Value: genValue(r),
			})
		case p < 70: // Delete (often of a live key, sometimes missing)
			h.Ops = append(h.Ops, Op{
				Kind: OpDelete,
				Key:  keyUniverse[r.Intn(len(keyUniverse))],
			})
		case p < 85: // Batch of 2..8 distinct keys, spanning several shards
			nrec := 2 + r.Intn(7)
			seen := map[string]bool{}
			var recs []core.Record
			for len(recs) < nrec {
				k := keyUniverse[r.Intn(len(keyUniverse))]
				if seen[string(k)] {
					continue
				}
				seen[string(k)] = true
				recs = append(recs, core.Record{Key: k, Value: genValue(r)})
			}
			h.Ops = append(h.Ops, Op{Kind: OpBatch, Batch: recs})
		case p < 93:
			h.Ops = append(h.Ops, Op{Kind: OpScan, Start: genBound(r), End: genBound(r)})
		default:
			h.Ops = append(h.Ops, Op{Kind: OpScanReverse, Start: genBound(r), End: genBound(r)})
		}
	}
	return h
}

// maxFuzzOps bounds FromBytes histories so a pathological fuzz input
// cannot make a single check run unboundedly long.
const maxFuzzOps = 48

// FromBytes decodes an arbitrary byte string into a history — the fuzz
// front end. Every input is valid; the decoder consumes bytes greedily
// and stops at the end of data or maxFuzzOps.
func FromBytes(data []byte) History {
	var h History
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	key := func(b byte) []byte { return keyUniverse[int(b)%len(keyUniverse)] }
	value := func(lb, seed byte) []byte {
		n := 1 + int(lb)%core.MaxValueLen
		v := make([]byte, n)
		for i := range v {
			v[i] = seed + byte(i)
		}
		return v
	}
	bound := func(b, kb byte) []byte {
		switch b % 3 {
		case 0:
			return nil
		case 1:
			return append([]byte(nil), key(kb)...)
		default:
			k := append([]byte(nil), key(kb)...)
			k[len(k)-1] ^= b
			if len(k) == 0 {
				return nil
			}
			return k
		}
	}

	for len(h.Ops) < maxFuzzOps {
		kb, ok := next()
		if !ok {
			break
		}
		switch OpKind(kb % byte(numOpKinds)) {
		case OpPut:
			k, ok1 := next()
			l, ok2 := next()
			s, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				return h
			}
			h.Ops = append(h.Ops, Op{Kind: OpPut, Key: key(k), Value: value(l, s)})
		case OpDelete:
			k, ok1 := next()
			if !ok1 {
				return h
			}
			h.Ops = append(h.Ops, Op{Kind: OpDelete, Key: key(k)})
		case OpBatch:
			nb, ok1 := next()
			if !ok1 {
				return h
			}
			nrec := 2 + int(nb)%7
			seen := map[string]bool{}
			var recs []core.Record
			for i := 0; i < nrec; i++ {
				k, ok1 := next()
				l, ok2 := next()
				s, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					break
				}
				if seen[string(key(k))] {
					continue
				}
				seen[string(key(k))] = true
				recs = append(recs, core.Record{Key: key(k), Value: value(l, s)})
			}
			if len(recs) > 0 {
				h.Ops = append(h.Ops, Op{Kind: OpBatch, Batch: recs})
			}
		case OpScan, OpScanReverse:
			b1, ok1 := next()
			k1, ok2 := next()
			b2, ok3 := next()
			k2, ok4 := next()
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return h
			}
			h.Ops = append(h.Ops, Op{
				Kind:  OpKind(kb % byte(numOpKinds)),
				Start: bound(b1, k1),
				End:   bound(b2, k2),
			})
		}
	}
	return h
}

// String renders an op compactly for failure messages.
func (o Op) String() string {
	switch o.Kind {
	case OpPut:
		return fmt.Sprintf("Put(%q, %q)", o.Key, o.Value)
	case OpDelete:
		return fmt.Sprintf("Delete(%q)", o.Key)
	case OpBatch:
		return fmt.Sprintf("Batch(%d records)", len(o.Batch))
	case OpScan:
		return fmt.Sprintf("Scan(%q, %q)", o.Start, o.End)
	case OpScanReverse:
		return fmt.Sprintf("ScanReverse(%q, %q)", o.Start, o.End)
	}
	return "?"
}
