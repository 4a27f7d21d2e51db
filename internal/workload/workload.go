// Package workload generates the key sets and operation streams of the
// paper's evaluation (Section IV.A):
//
//   - Dictionary: 466,544 distinct English-like words. The paper uses the
//     dwyl/english-words file; offline we synthesise a deterministic
//     corpus of the same cardinality with a syllable grammar, emitted in
//     alphabetical order like a dictionary file (see DESIGN.md for the
//     substitution rationale).
//   - Sequential: consecutive fixed-width strings over the paper's
//     62-character alphabet (A-Z, a-z, 0-9).
//   - Random: uniformly random variable-length strings of 5-16 bytes over
//     the same alphabet, de-duplicated, from a seeded PRNG.
//   - Mixed: YCSB-style operation mixes with the paper's three profiles
//     (Read-Intensive, Read-Modified-Write, Write-Intensive) under a
//     Uniform request distribution.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Alphabet is the paper's key alphabet: "each character in a key is chosen
// from the 52 alphabetic characters and 10 Arabic numerals".
const Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// DictionarySize is the cardinality of the paper's Dictionary workload
// ("a collection of 466,544 different English words").
const DictionarySize = 466544

// syllables is the sorted building-block inventory of the synthetic
// dictionary. 78 syllables give 78^2 + 78^3 + ... distinct words, far more
// than DictionarySize.
var syllables = func() []string {
	onsets := []string{"b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl", "st", "t", "th", "tr", "v", "w", "y", "z"}
	vowels := []string{"a", "e", "i", "o", "u", "ou", "ea"}
	var out []string
	for i, o := range onsets {
		for j, v := range vowels {
			// A sparse deterministic subset keeps the inventory at 78.
			if (i*7+j)%3 == 0 {
				out = append(out, o+v)
			}
		}
	}
	sort.Strings(out)
	return out
}()

// Dictionary returns n distinct English-like words in alphabetical order
// (matching a dictionary file read top to bottom). Words are 4-24 bytes.
// Dictionary(DictionarySize) reproduces the paper's corpus size.
func Dictionary(n int) [][]byte {
	out := make([][]byte, 0, n)
	s := syllables
	// Enumerate words by syllable count; within one count the enumeration
	// is lexicographic because the syllable inventory is sorted and all
	// syllables share no prefix relationships that would break ordering at
	// equal word lengths. A final sort guarantees dictionary order.
	var emit func(prefix string, depth int)
	total := 0
	need := func() bool { return total < n }
	for count := 2; count <= 4 && need(); count++ {
		emit = func(prefix string, depth int) {
			if !need() {
				return
			}
			if depth == 0 {
				out = append(out, []byte(prefix))
				total++
				return
			}
			for _, syl := range s {
				if !need() {
					return
				}
				emit(prefix+syl, depth-1)
			}
		}
		emit("", count)
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i]) < string(out[j]) })
	// Dedupe (concatenations of different syllable splits can collide).
	dedup := out[:0]
	var prev string
	for _, w := range out {
		if string(w) != prev {
			dedup = append(dedup, w)
			prev = string(w)
		}
	}
	out = dedup
	// Colliding splits are rare; top up with numbered variants if short.
	for i := 0; len(out) < n; i++ {
		out = append(out, []byte(fmt.Sprintf("%szz%06d", syllables[i%len(syllables)], i)))
	}
	return out[:n]
}

// sortedAlphabet is Alphabet in byte order, so consecutive Sequential
// keys are also consecutive in byte comparison.
const sortedAlphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

// Sequential returns n consecutive fixed-width strings over the key
// alphabet: "00000000", "00000001", ... — the paper's Sequential trace.
func Sequential(n int) [][]byte {
	const width = 8
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		b := make([]byte, width)
		v := i
		for j := width - 1; j >= 0; j-- {
			b[j] = sortedAlphabet[v%len(sortedAlphabet)]
			v /= len(sortedAlphabet)
		}
		out[i] = b
	}
	return out
}

// Random returns n distinct random strings of 5-16 bytes over Alphabet —
// the paper's Random trace ("random strings with variable sizes from 5 to
// 16 bytes").
func Random(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	seen := make(map[string]struct{}, n)
	for len(out) < n {
		ln := 5 + rng.Intn(12)
		b := make([]byte, ln)
		for i := range b {
			b[i] = Alphabet[rng.Intn(len(Alphabet))]
		}
		if _, dup := seen[string(b)]; dup {
			continue
		}
		seen[string(b)] = struct{}{}
		out = append(out, b)
	}
	return out
}

// Values returns n deterministic values of the given byte size (1-16).
func Values(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		v := make([]byte, size)
		for j := range v {
			v[j] = Alphabet[rng.Intn(len(Alphabet))]
		}
		out[i] = v
	}
	return out
}

// Kind enumerates operation types.
type Kind int

// Operation kinds.
const (
	OpInsert Kind = iota
	OpSearch
	OpUpdate
	OpDelete
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpSearch:
		return "search"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one generated operation.
type Op struct {
	// Kind selects the operation.
	Kind Kind
	// Key is the target key.
	Key []byte
	// Value is set for inserts and updates.
	Value []byte
}

// Mix describes an operation mix; percentages must sum to 100.
type Mix struct {
	// Name labels the mix in reports.
	Name string
	// InsertPct, SearchPct, UpdatePct, DeletePct are the operation shares.
	InsertPct, SearchPct, UpdatePct, DeletePct int
}

// The paper's three mixed workloads (Section IV.C), all under a Uniform
// request distribution.

// ReadIntensive is 10% insertion, 70% search, 10% update, 10% deletion.
func ReadIntensive() Mix {
	return Mix{Name: "Read-Intensive", InsertPct: 10, SearchPct: 70, UpdatePct: 10, DeletePct: 10}
}

// ReadModifiedWrite is 50% search, 50% update.
func ReadModifiedWrite() Mix {
	return Mix{Name: "Read-Modified-Write", SearchPct: 50, UpdatePct: 50}
}

// WriteIntensive is 40% insertion, 20% search, 40% update.
func WriteIntensive() Mix {
	return Mix{Name: "Write-Intensive", InsertPct: 40, SearchPct: 20, UpdatePct: 40}
}

// Mixes returns the three paper mixes in presentation order.
func Mixes() []Mix {
	return []Mix{ReadIntensive(), ReadModifiedWrite(), WriteIntensive()}
}

// Generate produces n operations over a store preloaded with the given
// keys. Searches, updates and deletes pick uniformly among currently live
// keys (YCSB's Uniform request distribution, the one the paper uses);
// inserts draw from fresh, never-loaded keys. valueSize sets
// insert/update payload sizes.
func (m Mix) Generate(n int, preloaded, fresh [][]byte, valueSize int, seed int64) []Op {
	return m.GenerateDist(n, preloaded, fresh, valueSize, seed, Uniform())
}

// Distribution selects which live record a search/update/delete targets.
// The paper's evaluation uses Uniform only; ZipfTheta is provided as an
// extension for skew studies (hot ARTs stress HART's per-ART locks).
type Distribution struct {
	// Name labels the distribution in reports.
	Name string
	// pick returns an index in [0, n) given the mix's PRNG.
	pick func(rng *rand.Rand, n int) int
}

// Pick draws an index in [0, n) from the distribution. Distributions are
// stateful (they cache spread constants per n) and not safe for
// concurrent use; give each goroutine its own Distribution value.
func (d Distribution) Pick(rng *rand.Rand, n int) int { return d.pick(rng, n) }

// Uniform returns YCSB's uniform request distribution (every live record
// equally likely), the distribution all the paper's mixes use.
func Uniform() Distribution {
	return Distribution{
		Name: "uniform",
		pick: func(rng *rand.Rand, n int) int { return rng.Intn(n) },
	}
}

// ZipfTheta returns the YCSB-style zipfian request distribution with
// skew parameter theta in (0, 1) — the Gray et al. "Quickly generating
// billion-record synthetic databases" generator YCSB popularised, where
// theta = 0.99 is the standard "zipfian" setting. Rank 0 is the hottest
// item; popularity decays as 1/rank^theta.
func ZipfTheta(theta float64) Distribution {
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: ZipfTheta skew %v outside (0, 1)", theta))
	}
	// The spread constants depend only on theta and n; cache them per n
	// (benchmarks call pick with a fixed or slowly growing n).
	var (
		zn           int
		zetaN, eta   float64
		alpha        = 1 / (1 - theta)
		zeta2        = 1 + math.Pow(0.5, theta)
		lastZetaArg  int
		lastZetaProg float64
	)
	zeta := func(n int) float64 {
		// Incremental harmonic-power sum: extend the cached partial sum
		// when n only grew, which makes the live-set growth in
		// GenerateDist O(1) amortised per op.
		if n < lastZetaArg {
			lastZetaArg, lastZetaProg = 0, 0
		}
		for i := lastZetaArg + 1; i <= n; i++ {
			lastZetaProg += 1 / math.Pow(float64(i), theta)
		}
		lastZetaArg = n
		return lastZetaProg
	}
	return Distribution{
		Name: "zipfian",
		pick: func(rng *rand.Rand, n int) int {
			if n != zn {
				zetaN = zeta(n)
				eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetaN)
				zn = n
			}
			u := rng.Float64()
			uz := u * zetaN
			switch {
			case uz < 1:
				return 0
			case uz < zeta2:
				return 1
			default:
				r := int(float64(n) * math.Pow(eta*u-eta+1, alpha))
				if r >= n {
					r = n - 1
				}
				return r
			}
		},
	}
}

// GenerateDist is Generate with an explicit request distribution.
func (m Mix) GenerateDist(n int, preloaded, fresh [][]byte, valueSize int, seed int64, dist Distribution) []Op {
	if m.InsertPct+m.SearchPct+m.UpdatePct+m.DeletePct != 100 {
		panic(fmt.Sprintf("workload: mix %q percentages sum to %d",
			m.Name, m.InsertPct+m.SearchPct+m.UpdatePct+m.DeletePct))
	}
	rng := rand.New(rand.NewSource(seed))
	live := make([][]byte, len(preloaded))
	copy(live, preloaded)
	nextFresh := 0
	value := func() []byte {
		v := make([]byte, valueSize)
		for j := range v {
			v[j] = Alphabet[rng.Intn(len(Alphabet))]
		}
		return v
	}
	ops := make([]Op, 0, n)
	for len(ops) < n {
		p := rng.Intn(100)
		switch {
		case p < m.InsertPct:
			if nextFresh >= len(fresh) {
				continue
			}
			k := fresh[nextFresh]
			nextFresh++
			live = append(live, k)
			ops = append(ops, Op{Kind: OpInsert, Key: k, Value: value()})
		case p < m.InsertPct+m.SearchPct:
			if len(live) == 0 {
				continue
			}
			ops = append(ops, Op{Kind: OpSearch, Key: live[dist.pick(rng, len(live))]})
		case p < m.InsertPct+m.SearchPct+m.UpdatePct:
			if len(live) == 0 {
				continue
			}
			ops = append(ops, Op{Kind: OpUpdate, Key: live[dist.pick(rng, len(live))], Value: value()})
		default:
			if len(live) == 0 {
				continue
			}
			i := dist.pick(rng, len(live))
			ops = append(ops, Op{Kind: OpDelete, Key: live[i]})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return ops
}
