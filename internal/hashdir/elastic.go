package hashdir

import "sort"

// Splits is an immutable set of split prefixes defining a variable-depth
// directory geometry (the elastic-directory extension; DESIGN.md §14).
//
// With a fixed hash-key length kh every record routes to key[:kh]. A
// split prefix p (len(p) >= kh) declares that the entry p was split one
// byte deeper: records whose keys extend p route past it to key[:len(p)+1]
// (and recursively deeper while the longer prefix is itself split), while
// the one record whose key is exactly p stays behind under the residual
// entry p. Routing therefore walks: start at key[:min(len(key), kh)] and
// extend by one byte while the current prefix is in the set and the key
// has bytes left.
//
// Any subset of prefixes is a well-formed geometry — routing never
// requires a parent/child relationship between members — which is what
// makes persisting the set crash-trivial: a torn update that drops or
// keeps any individual prefix still describes a directory that recovery
// can rebuild exactly.
//
// Splits values are immutable and shared; With and Without return
// modified copies. A nil *Splits behaves as the empty set.
type Splits struct {
	set map[string]struct{}
	max int // longest member, in bytes
}

// emptySplits backs NoSplits so the common fixed-geometry case allocates
// nothing.
var emptySplits = &Splits{}

// NoSplits returns the empty split set (the fixed-kh geometry).
func NoSplits() *Splits { return emptySplits }

// NewSplits builds a split set from prefixes (duplicates are collapsed).
func NewSplits(prefixes []string) *Splits {
	if len(prefixes) == 0 {
		return emptySplits
	}
	s := &Splits{set: make(map[string]struct{}, len(prefixes))}
	for _, p := range prefixes {
		s.set[p] = struct{}{}
		if len(p) > s.max {
			s.max = len(p)
		}
	}
	return s
}

// Len returns the number of split prefixes.
func (s *Splits) Len() int {
	if s == nil {
		return 0
	}
	return len(s.set)
}

// Has reports whether p is a split prefix.
func (s *Splits) Has(p []byte) bool {
	if s == nil || len(s.set) == 0 {
		return false
	}
	_, ok := s.set[string(p)]
	return ok
}

// MaxLen returns the length of the longest split prefix (0 when empty).
func (s *Splits) MaxLen() int {
	if s == nil {
		return 0
	}
	return s.max
}

// List returns the split prefixes in ascending order.
func (s *Splits) List() []string {
	if s == nil || len(s.set) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.set))
	for p := range s.set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// With returns a set that additionally contains p.
func (s *Splits) With(p []byte) *Splits {
	if s.Has(p) {
		return s
	}
	nu := &Splits{set: make(map[string]struct{}, s.Len()+1), max: s.MaxLen()}
	if s != nil {
		for k := range s.set {
			nu.set[k] = struct{}{}
		}
	}
	nu.set[string(p)] = struct{}{}
	if len(p) > nu.max {
		nu.max = len(p)
	}
	return nu
}

// Without returns a set with p removed.
func (s *Splits) Without(p []byte) *Splits {
	if !s.Has(p) {
		return s
	}
	if len(s.set) == 1 {
		return emptySplits
	}
	nu := &Splits{set: make(map[string]struct{}, len(s.set)-1)}
	for k := range s.set {
		if k == string(p) {
			continue
		}
		nu.set[k] = struct{}{}
		if len(k) > nu.max {
			nu.max = len(k)
		}
	}
	return nu
}

// Route returns key's directory prefix under this geometry: the first
// min(len(key), base) bytes, extended one byte at a time while the
// current prefix is a split member and the key has bytes beyond it. The
// result is a subslice of key (no allocation).
func (s *Splits) Route(key []byte, base int) []byte {
	n := base
	if len(key) < n {
		n = len(key)
	}
	if s == nil || len(s.set) == 0 {
		return key[:n]
	}
	for n < len(key) && n <= s.max {
		if _, ok := s.set[string(key[:n])]; !ok {
			break
		}
		n++
	}
	return key[:n]
}
