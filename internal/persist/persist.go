// Package persist implements the HOT snapshot format: a versioned,
// checksummed binary image of an index's (key, TID) entries that survives
// crashes and detects — rather than silently loads — torn or bit-flipped
// files.
//
// # Format
//
// A snapshot is a 16-byte header, a sequence of data blocks, and a trailer:
//
//	header:  magic "HOTSNAP\x01" | version u16 | kind u16 | crc32 u32
//	block:   codec u8 << 24 | payloadLen u24 | crc32(payload) u32 | payload
//	trailer: 0 u32 | count u64 | crc32(count) u32
//
// All integers are little-endian. The top byte of a block's length word
// names its payload codec: 0 (raw) is the plain entry stream — a sequence
// of `uvarint keyLen | key bytes | uvarint tid` entries in strictly
// ascending key order, within a block and across consecutive blocks — and
// 1 (packed) is the delta-compressed form of exactly that stream (see
// codec.go). Payload lengths are capped far below 2^24, so raw blocks are
// byte-identical to the format before codecs existed. A raw block's CRC
// covers its payload exactly as it always has; a packed block's CRC covers
// the codec byte followed by the stored (compressed) payload, so a flipped
// codec byte is a checksum mismatch rather than a silent reinterpretation. The trailer is
// distinguished from a block by its zero length word and records the
// authoritative entry count (the header cannot: concurrent snapshots stream
// entries while writers commit, so the count is only known at the end).
//
// Every structural unit carries its own CRC32 (Castagnoli), so damage is
// localized: a torn tail or a flipped bit invalidates exactly the units it
// touches, and Recover can hand back every entry of the longest valid
// prefix. Errors are typed (*FormatError) and carry the exact byte offset
// of the damaged unit.
//
// # Durability
//
// SaveFile writes the snapshot to `path + ".tmp"`, fsyncs it, atomically
// renames it over path and fsyncs the directory, so a crash at any point
// leaves either the previous snapshot or the complete new one — never a
// mix. The writer's I/O steps are threaded with internal/chaos injection
// points (short writes, injected errors, simulated crashes); the
// crash-matrix test kills a writer at each of them and requires recovery.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a HOT snapshot file: "HOTSNAP" plus a format-generation
// byte that changes only on incompatible layout changes.
var Magic = [8]byte{'H', 'O', 'T', 'S', 'N', 'A', 'P', 0x01}

// Version is the current snapshot format version. Readers reject snapshots
// written by a newer version with a typed ErrVersionSkew error rather than
// misparsing them.
const Version uint16 = 1

// Content kinds recorded in the header so a snapshot of one index type
// cannot be silently loaded into another.
const (
	// KindTree marks a Tree/ConcurrentTree snapshot: prefix-free keys
	// mapped to caller-meaningful TIDs.
	KindTree uint16 = 1
	// KindMap marks a Map snapshot: raw (unescaped) keys mapped to values.
	KindMap uint16 = 2
	// KindUint64Set marks the integer-set snapshot of an earlier build:
	// 8-byte big-endian keys whose TID equals the decoded value. The root
	// package has no integer-set type any more (an integer set is a Tree
	// over the embedded-key loader, saved as KindTree), so every loader
	// refuses this kind with ErrWrongKind; the number stays reserved.
	KindUint64Set uint16 = 3
	// KindShardManifest marks the manifest section of a sharded snapshot:
	// the boundary keys of the range partitioning, each entry's TID its
	// position in the boundary table. A sharded snapshot file is one
	// manifest section followed by one data section per shard (trailer
	// count + 1 shards), all concatenated in the same file; each section is
	// a complete header/blocks/trailer stream of this format, so section
	// damage is localized exactly like block damage within a section.
	KindShardManifest uint16 = 4
	// KindWAL marks a write-ahead log file (see wal.go): after the header,
	// the file is a sequence of length-prefixed, CRC32-C-checksummed log
	// records with monotonically increasing LSNs rather than snapshot
	// blocks — the only kind whose payload bytes are not sorted entries.
	KindWAL uint16 = 5
)

const (
	headerSize  = 16
	trailerSize = 16

	// MaxKeyLen bounds entry key lengths, matching core.MaxKeyLen. Longer
	// lengths in a file are corruption by construction.
	MaxKeyLen = 1<<16/8 - 1

	// MaxTID bounds entry TIDs, matching core.MaxTID.
	MaxTID = 1<<63 - 1

	// blockTarget is the payload size at which the writer seals a block.
	// Small enough that a torn tail loses little, large enough that CRC
	// and syscall overhead amortize.
	blockTarget = 32 << 10

	// maxBlockLen is the largest payload length a reader accepts. It caps
	// allocation when parsing hostile length fields; the writer never
	// exceeds blockTarget plus one max-size entry.
	maxBlockLen = blockTarget + MaxKeyLen + 2*10

	// MaxBlockEntries bounds the entries of one block: a raw entry takes at
	// least two payload bytes, and a packed block's count is held to it.
	MaxBlockEntries = maxBlockLen / 2
)

// castagnoli is the CRC32-C table used for every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInjected is returned by the writer when an armed chaos point injects
// an I/O fault at one of its steps.
var ErrInjected = errors.New("persist: injected I/O fault")

// ErrKind classifies what a *FormatError found wrong with a snapshot.
type ErrKind uint8

const (
	// ErrBadMagic: the file does not start with the snapshot magic.
	ErrBadMagic ErrKind = iota
	// ErrVersionSkew: the snapshot was written by an incompatible format
	// version.
	ErrVersionSkew
	// ErrWrongKind: the snapshot holds a different index type than the
	// loader expects.
	ErrWrongKind
	// ErrTruncated: the file ends mid-unit — a header, block, or trailer
	// is cut short (torn tail, partial write).
	ErrTruncated
	// ErrChecksum: a unit's CRC32 does not match its contents (bit rot,
	// torn write within a unit).
	ErrChecksum
	// ErrCorrupt: the bytes checksum clean but violate the format's
	// structural rules — overlong blocks or keys, TIDs above MaxTID,
	// entries out of key order, a trailing partial entry, or a trailer
	// count that contradicts the entries present.
	ErrCorrupt
	// ErrUnsupportedCodec: a block names a payload codec this reader does
	// not decode — a file from a newer build, not damage. Detected from
	// the codec byte alone, before the payload is read, so it is never
	// misreported as a checksum mismatch.
	ErrUnsupportedCodec
)

var errKindNames = [...]string{
	ErrBadMagic:         "bad magic",
	ErrVersionSkew:      "version skew",
	ErrWrongKind:        "wrong content kind",
	ErrTruncated:        "truncated",
	ErrChecksum:         "checksum mismatch",
	ErrCorrupt:          "corrupt structure",
	ErrUnsupportedCodec: "unsupported block codec",
}

// String names the error kind for reports.
func (k ErrKind) String() string {
	if int(k) < len(errKindNames) {
		return errKindNames[k]
	}
	return "unknown"
}

// FormatError is the typed error every reader entry point returns for a
// damaged or incompatible snapshot: what is wrong and at which byte.
type FormatError struct {
	// Kind classifies the damage.
	Kind ErrKind
	// Offset is the byte offset of the damaged or offending unit.
	Offset int64
	// Detail describes the observed damage.
	Detail string
}

// Error implements the error interface.
func (e *FormatError) Error() string {
	return fmt.Sprintf("persist: %s at byte %d: %s", e.Kind, e.Offset, e.Detail)
}

// unusable reports header-level damage: the bytes are not a file of this
// format at all, or one from an incompatible version or of another kind.
// The salvaging readers return it as an error as well as in their report,
// so callers that ignore the report cannot mistake it for an empty file.
func (e *FormatError) unusable() bool {
	return e != nil && (e.Kind == ErrBadMagic || e.Kind == ErrVersionSkew || e.Kind == ErrWrongKind)
}

func formatErr(kind ErrKind, off int64, format string, args ...any) *FormatError {
	return &FormatError{Kind: kind, Offset: off, Detail: fmt.Sprintf(format, args...)}
}

// RecoveryReport describes what Recover salvaged from a snapshot.
type RecoveryReport struct {
	// Entries is the number of entries delivered — all of them from
	// blocks that validated completely.
	Entries uint64
	// Complete reports whether the snapshot read cleanly through its
	// trailer; when true, Damage is nil and Entries is the exact count.
	Complete bool
	// Damage is the first damage encountered, nil when Complete. Entries
	// before Damage.Offset were salvaged; everything at or after it was
	// discarded.
	Damage *FormatError
}
