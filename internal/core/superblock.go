package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// HART superblock: the store's own persistent identity record, living in
// the arena's application label area (pmem.LabelBase — a fixed offset
// readable before any allocator state is interpreted). It pins down what
// a caller previously had to remember out of band, closing the "Restore
// must be given the same table" footgun:
//
//	+0  magic (8B, "HARTCORE"); written last during format, so a torn
//	    format reads as not-formatted rather than half-formatted
//	+8  format version (8B, FormatVersion); a file of any other version
//	    is refused, never converted
//	+16 HashKeyLen (8B) — kh, the base hash-directory routing width
//	+24 number of value classes (8B)
//	+32 flags (8B): bit 0 = clean shutdown (set by Close, cleared by
//	    Open before serving traffic)
//	+40 number of active split prefixes (8B; reads as 0 on images
//	    written before the elastic directory existed)
//	+48 value-class sizes (8B each, ascending; up to sbMaxClasses)
//	+96 split prefixes (8B each, up to sbMaxSplits): byte 0 is the
//	    prefix length (1..6), bytes 1..len the prefix itself, packed
//	    little-endian into one word so each slot persists atomically
//
// Geometry (HashKeyLen, ValueClasses) is structural: leaves were split
// and values were binned under it, so attaching with different geometry
// would misindex every record. Open therefore adopts the superblock's
// geometry when the caller left the options zero, and refuses the attach
// when the caller named conflicting values.
//
// The split-prefix set is structural too — it defines the variable-depth
// routing the directory was rebuilt under (DESIGN.md §14) — but unlike
// kh it needs no agreement dance: recovery regroups every leaf under
// whatever set the superblock holds, and ANY subset of split prefixes is
// a valid geometry. Updates exploit that: an add persists the slot word
// before the count (a crash in between leaves an inert orphan word), a
// remove copies the last slot over the victim before shrinking the count
// (a crash in between leaves a harmless duplicate that Open's
// normalization pass rewrites away).
//
// The clean flag is diagnostic, not load-bearing: recovery always runs on
// attach (it is cheap and idempotent), so a lost flag can never lose
// data. It tells operators — via RecoveryStats.WasClean and hartfsck —
// whether the image was closed properly or is a crash image.
const (
	sbBase pmem.Ptr = pmem.LabelBase

	sbMagic = 0x48415254434f5245 // "HARTCORE"

	sbOffMagic      = 0
	sbOffVersion    = 8
	sbOffHashKeyLen = 16
	sbOffNumClasses = 24
	sbOffFlags      = 32
	sbOffNumSplits  = 40
	sbOffClasses    = 48
	sbOffSplits     = 96

	sbFlagClean = 1 << 0

	// sbMaxClasses is the label area's capacity for class sizes. It was
	// 18 before the split area claimed the label bytes past +96; images
	// with more than 6 classes would overlap the split slots and are
	// refused (none were ever writable through the public API, whose
	// tests top out at 4 classes; epalloc.MaxClasses binds the rest).
	sbMaxClasses = (sbOffSplits - sbOffClasses) / 8

	// sbMaxSplits caps the persisted split set. A split that would
	// exceed it is refused and the directory keeps its current shape —
	// capacity pressure degrades performance, never correctness.
	sbMaxSplits = (int64(pmem.LabelSize) - sbOffSplits) / 8
)

// FormatVersion is the on-media format this build writes and the only one
// it opens. Version 2 widened the allocator's update-log slots from 24 to
// 32 bytes, moving every allocator structure behind the pool. Version 3
// stores values of up to MaxInlineLen bytes in the leaf's first word: the
// leaf gained a shape byte at +9 (the key moved to +10) and the update-log
// record the leaf's new shape in what was the slot's padding word.
const FormatVersion = 3

// Superblock attach errors.
var (
	// ErrNotFormatted reports an arena with no (complete) HART superblock:
	// never formatted, a pre-superblock image, or a format torn before the
	// magic was persisted.
	ErrNotFormatted = errors.New("hart: arena holds no HART superblock")
	// ErrVersionMismatch reports a superblock written by an incompatible
	// format version.
	ErrVersionMismatch = errors.New("hart: superblock format version not supported")
	// ErrGeometryMismatch reports options naming a geometry (HashKeyLen,
	// ValueClasses) different from the one the store was created with.
	ErrGeometryMismatch = errors.New("hart: options conflict with the store's superblock geometry")
)

// superblock is the decoded persistent identity record.
type superblock struct {
	Version      int
	HashKeyLen   int
	ValueClasses []int64
	Clean        bool
	// Splits holds the decoded split prefixes in slot order, after
	// normalization (structurally invalid or duplicate slots dropped).
	Splits []string
	// SplitsDirty reports that normalization changed the slot list, so
	// Open must rewrite the persisted area to match.
	SplitsDirty bool
}

// encodeSplitSlot packs a split prefix into one 8-byte slot word:
// byte 0 = length, bytes 1..len = prefix, little-endian.
func encodeSplitSlot(prefix string) uint64 {
	w := uint64(len(prefix))
	for i := 0; i < len(prefix); i++ {
		w |= uint64(prefix[i]) << (8 * uint(i+1))
	}
	return w
}

// decodeSplitSlot unpacks a slot word; ok is false for a structurally
// invalid slot (length outside 1..7).
func decodeSplitSlot(w uint64) (string, bool) {
	n := int(w & 0xff)
	if n < 1 || n > 7 {
		return "", false
	}
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(w >> (8 * uint(i+1)))
	}
	return string(p), true
}

// writeSuperblockBody persists every superblock field except the magic.
// Format order is body → allocator format → magic (writeSuperblockMagic),
// so a crash mid-format leaves an arena that attaches as not-formatted.
func writeSuperblockBody(arena *pmem.Arena, opts Options) error {
	if int64(len(opts.ValueClasses)) > sbMaxClasses {
		return fmt.Errorf("hart: %d value classes exceed the superblock capacity %d",
			len(opts.ValueClasses), sbMaxClasses)
	}
	arena.Write8(sbBase+sbOffVersion, FormatVersion)
	arena.Write8(sbBase+sbOffHashKeyLen, uint64(opts.HashKeyLen))
	arena.Write8(sbBase+sbOffNumClasses, uint64(len(opts.ValueClasses)))
	arena.Write8(sbBase+sbOffFlags, 0) // born dirty; Close marks clean
	arena.Write8(sbBase+sbOffNumSplits, 0)
	for i, c := range opts.ValueClasses {
		arena.Write8(sbBase+sbOffClasses+pmem.Ptr(i*8), uint64(c))
	}
	arena.Persist(sbBase, int(pmem.LabelSize))
	return nil
}

// writeSuperblockMagic commits the superblock: after this persist the
// arena attaches as a formatted HART store.
func writeSuperblockMagic(arena *pmem.Arena) {
	arena.Write8(sbBase+sbOffMagic, sbMagic)
	arena.Persist(sbBase+sbOffMagic, 8)
}

// readSuperblock decodes and validates the superblock of an existing
// arena.
func readSuperblock(arena *pmem.Arena) (superblock, error) {
	var sb superblock
	if arena.Read8(sbBase+sbOffMagic) != sbMagic {
		return sb, ErrNotFormatted
	}
	sb.Version = int(arena.Read8(sbBase + sbOffVersion))
	if sb.Version != FormatVersion {
		return sb, fmt.Errorf("%w: image version %d, this build reads %d (values of up to %d bytes in the leaf; version 2 kept every value in an object of its own, version 1 had 24-byte update-log slots)",
			ErrVersionMismatch, sb.Version, FormatVersion, MaxInlineLen)
	}
	sb.HashKeyLen = int(arena.Read8(sbBase + sbOffHashKeyLen))
	if sb.HashKeyLen < 1 || sb.HashKeyLen >= MaxKeyLen {
		return sb, fmt.Errorf("hart: superblock HashKeyLen %d out of range", sb.HashKeyLen)
	}
	n := int64(arena.Read8(sbBase + sbOffNumClasses))
	if n < 1 || n > sbMaxClasses {
		return sb, fmt.Errorf("hart: superblock class count %d out of range", n)
	}
	sb.ValueClasses = make([]int64, n)
	for i := range sb.ValueClasses {
		sb.ValueClasses[i] = int64(arena.Read8(sbBase + sbOffClasses + pmem.Ptr(i*8)))
	}
	if err := validateClasses(sb.ValueClasses); err != nil {
		return sb, fmt.Errorf("hart: superblock class table invalid: %w", err)
	}
	sb.Clean = arena.Read8(sbBase+sbOffFlags)&sbFlagClean != 0

	ns := int64(arena.Read8(sbBase + sbOffNumSplits))
	if ns < 0 || ns > sbMaxSplits {
		return sb, fmt.Errorf("hart: superblock split count %d out of range", ns)
	}
	// Normalize while decoding: a slot that is structurally invalid, out
	// of the routable depth range, or a duplicate (the signature of a
	// remove torn between the slot copy and the count shrink) is dropped
	// and SplitsDirty asks Open to rewrite the area. Dropping is always
	// safe — any subset of split prefixes is a valid geometry.
	seen := make(map[string]struct{}, ns)
	for i := int64(0); i < ns; i++ {
		p, ok := decodeSplitSlot(arena.Read8(sbBase + sbOffSplits + pmem.Ptr(i*8)))
		if !ok || len(p) < sb.HashKeyLen || len(p) > maxDirDepth-1 {
			sb.SplitsDirty = true
			continue
		}
		if _, dup := seen[p]; dup {
			sb.SplitsDirty = true
			continue
		}
		seen[p] = struct{}{}
		sb.Splits = append(sb.Splits, p)
	}
	return sb, nil
}

// adoptGeometry merges the superblock geometry into opts: zero fields are
// adopted from the store, non-zero fields must agree with it. Returns the
// merged options (not yet defaulted — both sources are authoritative, so
// nothing is left to default but scalars like ArenaSize).
func adoptGeometry(opts Options, sb superblock) (Options, error) {
	if opts.HashKeyLen == 0 {
		opts.HashKeyLen = sb.HashKeyLen
	} else if opts.HashKeyLen != sb.HashKeyLen {
		return opts, fmt.Errorf("%w: HashKeyLen %d, store has %d",
			ErrGeometryMismatch, opts.HashKeyLen, sb.HashKeyLen)
	}
	if len(opts.ValueClasses) == 0 {
		opts.ValueClasses = slices.Clone(sb.ValueClasses)
	} else if !slices.Equal(opts.ValueClasses, sb.ValueClasses) {
		return opts, fmt.Errorf("%w: ValueClasses %v, store has %v",
			ErrGeometryMismatch, opts.ValueClasses, sb.ValueClasses)
	}
	return opts, nil
}

// adoptSplits installs the superblock's normalized split set as the
// in-DRAM slot mirror and, when normalization dropped slots, rewrites the
// persisted area so mirror and PM agree slot for slot (the mirror's
// indices drive persistSplitRemove). Called once from Open, before
// recovery routes any leaf.
func (h *HART) adoptSplits(sb superblock) {
	h.splitSlots = slices.Clone(sb.Splits)
	if !sb.SplitsDirty {
		return
	}
	h.arena.SetPersistSite("superblock.split-normalize")
	for i, p := range h.splitSlots {
		h.arena.Write8(sbBase+sbOffSplits+pmem.Ptr(i*8), encodeSplitSlot(p))
	}
	h.arena.Persist(sbBase+sbOffSplits, len(h.splitSlots)*8)
	h.arena.Write8(sbBase+sbOffNumSplits, uint64(len(h.splitSlots)))
	h.arena.Persist(sbBase+sbOffNumSplits, 8)
}

// persistSplitAdd appends prefix to the superblock's split area and the
// DRAM mirror. Persist order is slot word first, count second: a crash
// between the two leaves the count unchanged and the orphaned slot word
// inert. Returns false when all sbMaxSplits slots are taken — the caller
// must refuse the split. Caller holds dirMu.
func (h *HART) persistSplitAdd(prefix []byte) bool {
	if int64(len(h.splitSlots)) >= sbMaxSplits {
		return false
	}
	i := len(h.splitSlots)
	h.arena.SetPersistSite("elastic.split-slot")
	h.arena.Write8(sbBase+sbOffSplits+pmem.Ptr(i*8), encodeSplitSlot(string(prefix)))
	h.arena.Persist(sbBase+sbOffSplits+pmem.Ptr(i*8), 8)
	h.arena.SetPersistSite("elastic.split-count")
	h.arena.Write8(sbBase+sbOffNumSplits, uint64(i+1))
	h.arena.Persist(sbBase+sbOffNumSplits, 8)
	h.splitSlots = append(h.splitSlots, string(prefix))
	return true
}

// persistSplitRemove drops prefix from the split area by copying the last
// slot over it and shrinking the count. A crash after the copy but before
// the count shrink leaves the victim overwritten and the tail slot
// duplicated — a state that already describes the post-remove set, and
// whose duplicate Open's normalization rewrites away. Caller holds dirMu.
func (h *HART) persistSplitRemove(prefix []byte) {
	i := slices.Index(h.splitSlots, string(prefix))
	if i < 0 {
		return
	}
	last := len(h.splitSlots) - 1
	if i != last {
		h.arena.SetPersistSite("elastic.split-slot")
		h.arena.Write8(sbBase+sbOffSplits+pmem.Ptr(i*8), encodeSplitSlot(h.splitSlots[last]))
		h.arena.Persist(sbBase+sbOffSplits+pmem.Ptr(i*8), 8)
		h.splitSlots[i] = h.splitSlots[last]
	}
	h.arena.SetPersistSite("elastic.split-count")
	h.arena.Write8(sbBase+sbOffNumSplits, uint64(last))
	h.arena.Persist(sbBase+sbOffNumSplits, 8)
	h.splitSlots = h.splitSlots[:last]
}

// setCleanFlag persists the clean/dirty shutdown marker.
func (h *HART) setCleanFlag(clean bool) {
	h.arena.SetPersistSite("superblock.clean-flag")
	flags := h.arena.Read8(sbBase + sbOffFlags)
	if clean {
		flags |= sbFlagClean
	} else {
		flags &^= sbFlagClean
	}
	h.arena.Write8(sbBase+sbOffFlags, flags)
	h.arena.Persist(sbBase+sbOffFlags, 8)
}

// checkSuperblock is fsck's superblock pass: the persistent identity
// record must be present, readable, and in agreement with the running
// instance's geometry — including the split set behind the published
// directory.
func (h *HART) checkSuperblock() error {
	sb, err := readSuperblock(h.arena)
	if err != nil {
		return fmt.Errorf("hart: fsck superblock: %w", err)
	}
	if sb.HashKeyLen != h.opts.HashKeyLen {
		return fmt.Errorf("hart: fsck superblock: HashKeyLen %d, instance runs %d",
			sb.HashKeyLen, h.opts.HashKeyLen)
	}
	if !slices.Equal(sb.ValueClasses, h.opts.ValueClasses) {
		return fmt.Errorf("hart: fsck superblock: ValueClasses %v, instance runs %v",
			sb.ValueClasses, h.opts.ValueClasses)
	}
	persisted := slices.Clone(sb.Splits)
	slices.Sort(persisted)
	if live := h.dir.Load().splits.List(); !slices.Equal(persisted, live) {
		return fmt.Errorf("hart: fsck superblock: split set %q, instance routes %q",
			persisted, live)
	}
	return nil
}
