package core

import (
	"errors"
	"fmt"

	"github.com/casl-sdsu/hart/internal/hashdir"
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
//	+16 HashKeyLen (8B) — kh, the hash directory's key length
//	+24 number of object classes (8B), 3
//	+32 flags (8B): bit 0 = clean shutdown (set by Close, cleared by
//	    Open before serving traffic)
//	+40 reserved (8B), written 0
//	+48 object-class sizes (8B each), in class order: 24 (classLeaf24),
//	    40 (classLeaf40), 16 (classValue16)
//	+72 unused up to +96
//	+96 reserved up to pmem.LabelSize
//
// Format-3 builds that had an elastic directory kept a split-prefix count
// at +40 and the prefixes from +96. Open ignores both areas: a split only
// ever moved DRAM nodes, never a PM leaf, so grouping the leaves on their
// first kh bytes rebuilds an exact index whatever those words hold. A new
// image writes 0 at +40.
//
// Geometry is structural: keys were divided into hash and ART keys under
// HashKeyLen and records were binned under the class table, so attaching
// with different geometry would misindex every record. Open therefore
// adopts the superblock's HashKeyLen when the caller left it zero, and
// refuses the attach when the caller named another one. The class table
// is fixed by the format (classSizes): an image persisting any other table
// is refused.
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
	sbOffReserved   = 40
	sbOffClasses    = 48

	sbFlagClean = 1 << 0
)

// classSizes is the object-class table the superblock persists: the slot
// sizes of classLeaf24, classLeaf40 and classValue16, in class order.
var classSizes = [...]uint64{
	classLeaf24:  leaf24Size,
	classLeaf40:  leaf40Size,
	classValue16: MaxValueLen,
}

// FormatVersion is the on-media format this build writes and the only one
// it opens. Version 2 widened the allocator's update-log slots from 24 to
// 32 bytes, moving every allocator structure behind the pool. Version 3
// stores values of up to MaxInlineLen bytes in the leaf's first word: the
// leaf gained a shape byte at +9 (the key moved to +10) and the update-log
// record the leaf's new shape in what was the slot's padding word.
// Version 4 adds a 24-byte leaf class, for keys of up to 14 bytes, beside
// the 40-byte one, and drops the 8-byte value class, which version 3
// persisted but never filled.
const FormatVersion = 4

// Superblock attach errors.
var (
	// ErrNotFormatted reports an arena with no (complete) HART superblock:
	// never formatted, a pre-superblock image, or a format torn before the
	// magic was persisted.
	ErrNotFormatted = errors.New("hart: arena holds no HART superblock")
	// ErrVersionMismatch reports a superblock written by an incompatible
	// format version.
	ErrVersionMismatch = errors.New("hart: superblock format version not supported")
	// ErrGeometryMismatch reports options naming a HashKeyLen other than
	// the store's, or a store whose geometry this build cannot serve: a kh
	// the directory cannot hold, or an object-class table other than the
	// format's {24, 40, 16}.
	ErrGeometryMismatch = errors.New("hart: options conflict with the store's superblock geometry")
)

// superblock is the decoded persistent identity record.
type superblock struct {
	Version    int
	HashKeyLen int
	Clean      bool
}

// writeSuperblockBody persists every superblock field except the magic.
// Format order is body → allocator format → magic (writeSuperblockMagic),
// so a crash mid-format leaves an arena that attaches as not-formatted.
func writeSuperblockBody(arena *pmem.Arena, opts Options) {
	arena.Write8(sbBase+sbOffVersion, FormatVersion)
	arena.Write8(sbBase+sbOffHashKeyLen, uint64(opts.HashKeyLen))
	arena.Write8(sbBase+sbOffNumClasses, uint64(len(classSizes)))
	arena.Write8(sbBase+sbOffFlags, 0) // born dirty; Close marks clean
	arena.Write8(sbBase+sbOffReserved, 0)
	for i, size := range classSizes {
		arena.Write8(sbBase+sbOffClasses+pmem.Ptr(8*i), size)
	}
	arena.Persist(sbBase, int(pmem.LabelSize))
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
		return sb, fmt.Errorf("%w: image version %d, this build reads %d (24- and 40-byte leaves; version 3 had one 40-byte leaf class, version 2 kept every value in an object of its own, version 1 had 24-byte update-log slots)",
			ErrVersionMismatch, sb.Version, FormatVersion)
	}
	sb.HashKeyLen = int(arena.Read8(sbBase + sbOffHashKeyLen))
	if sb.HashKeyLen < 1 || sb.HashKeyLen >= MaxKeyLen {
		return sb, fmt.Errorf("hart: superblock HashKeyLen %d out of range", sb.HashKeyLen)
	}
	n := arena.Read8(sbBase + sbOffNumClasses)
	var sizes [len(classSizes)]uint64
	for i := range sizes {
		sizes[i] = arena.Read8(sbBase + sbOffClasses + pmem.Ptr(8*i))
	}
	if n != uint64(len(classSizes)) || sizes != classSizes {
		return sb, fmt.Errorf("%w: store has %d object classes starting %s, this build serves %s",
			ErrGeometryMismatch, n, classTable(sizes), classTable(classSizes))
	}
	sb.Clean = arena.Read8(sbBase+sbOffFlags)&sbFlagClean != 0
	return sb, nil
}

// classTable spells a class table as "{24, 40, 16}".
func classTable(sizes [len(classSizes)]uint64) string {
	return fmt.Sprintf("{%d, %d, %d}", sizes[0], sizes[1], sizes[2])
}

// adoptGeometry merges the superblock's HashKeyLen into opts: a zero one
// is adopted from the store, a non-zero one must agree with it. A store
// written with a kh the directory cannot hold (builds before the radix
// directory accepted up to 23) is refused. Returns the merged options,
// not yet defaulted.
func adoptGeometry(opts Options, sb superblock) (Options, error) {
	if sb.HashKeyLen > hashdir.MaxKeyLen {
		return opts, fmt.Errorf("%w: store has HashKeyLen %d, the directory holds hash keys of at most %d bytes",
			ErrGeometryMismatch, sb.HashKeyLen, hashdir.MaxKeyLen)
	}
	if opts.HashKeyLen == 0 {
		opts.HashKeyLen = sb.HashKeyLen
	} else if opts.HashKeyLen != sb.HashKeyLen {
		return opts, fmt.Errorf("%w: HashKeyLen %d, store has %d",
			ErrGeometryMismatch, opts.HashKeyLen, sb.HashKeyLen)
	}
	return opts, nil
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
// instance's geometry.
func (h *HART) checkSuperblock() error {
	sb, err := readSuperblock(h.arena)
	if err != nil {
		return fmt.Errorf("hart: fsck superblock: %w", err)
	}
	if sb.HashKeyLen != h.opts.HashKeyLen {
		return fmt.Errorf("hart: fsck superblock: HashKeyLen %d, instance runs %d",
			sb.HashKeyLen, h.opts.HashKeyLen)
	}
	return nil
}
