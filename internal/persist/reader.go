package persist

import (
	"encoding/binary"
	"io"
	"os"
)

// EntryFunc receives one snapshot entry. The key slice is only valid
// during the call. Returning an error aborts the read and is returned
// verbatim by the reader entry point.
type EntryFunc func(key []byte, tid uint64) error

// Read parses a snapshot from r, validating the header against wantKind,
// every block CRC, the ascending key order and the trailer count, and
// delivers each entry to fn. It returns the entry count, or the first
// damage as a *FormatError carrying the byte offset. Entries are delivered
// only from blocks that validated completely, so fn never observes bytes a
// checksum has not vouched for.
func Read(r io.Reader, wantKind uint16, fn EntryFunc) (uint64, error) {
	rd := &reader{r: r}
	count, damage, err := rd.section(wantKind, fn)
	if err == nil && damage != nil {
		err = damage
	}
	return count, err
}

// Recover parses like Read but salvages: instead of failing on the first
// damage it stops there and reports every entry delivered from the valid
// prefix. The returned error is non-nil only for failures outside the
// file's content — an fn error, or an unusable header (nothing salvageable,
// reported as the error AND in the report's Damage).
func Recover(r io.Reader, wantKind uint16, fn EntryFunc) (RecoveryReport, error) {
	rd := &reader{r: r}
	count, damage, err := rd.section(wantKind, fn)
	rep := RecoveryReport{Entries: count, Complete: damage == nil && err == nil, Damage: damage}
	if err == nil && damage.unusable() {
		err = damage
	}
	return rep, err
}

// ReadFile is Read over the file at path.
func ReadFile(path string, wantKind uint16, fn EntryFunc) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return Read(f, wantKind, fn)
}

// reader is the sequential driver: it pulls a section's units off an
// io.Reader in file order and hands each to the decoders in decode.go. Every
// whole-section walk runs through it — Read and Recover directly, PageReader's
// open-time scan and ScanSections over an io.SectionReader — so all of them
// report the same damage at the same offset.
type reader struct {
	r   io.Reader
	off int64 // file offset of the next unread byte
	err error // what the last short read returned
}

// header reads and validates a section header.
func (rd *reader) header(wantKind uint16) (uint16, *FormatError) {
	var h [headerSize]byte
	base := rd.off
	if damage := rd.readFull(h[:], "header"); damage != nil {
		return 0, damage
	}
	return decodeHeader(h[:], base, wantKind)
}

// blocks walks the units after the header through the trailer, delivering
// entries to fn and, when onBlock is non-nil, each fully validated block's
// offset, codec, stored and raw payload lengths to it. It returns the
// entries delivered, the first damage found (nil for a clean section) and
// any fn error.
func (rd *reader) blocks(fn EntryFunc, onBlock func(off int64, codec Codec, stored, raw int)) (uint64, *FormatError, error) {
	var ord keyOrder
	var count uint64
	for {
		unitOff := rd.off
		var head [trailerSize]byte
		if damage := rd.readFull(head[:8], "block header"); damage != nil {
			return count, damage, nil
		}
		codec, length, damage := decodeBlockWord(binary.LittleEndian.Uint32(head[:4]), unitOff)
		if damage != nil {
			return count, damage, nil
		}
		if length == 0 {
			if damage := rd.readFull(head[8:], "trailer"); damage != nil {
				return count, damage, nil
			}
			want, damage := decodeTrailer(head[:], unitOff)
			if damage == nil && want != count {
				damage = formatErr(ErrCorrupt, unitOff, "trailer count %d, found %d entries", want, count)
			}
			return count, damage, nil
		}
		unit := make([]byte, 8+length)
		copy(unit, head[:8])
		if damage := rd.readFull(unit[8:], "block payload"); damage != nil {
			return count, damage, nil
		}
		n, raw, damage, err := decodeBlock(unit, unitOff, &ord, fn)
		count += n
		if damage != nil || err != nil {
			return count, damage, err
		}
		if onBlock != nil {
			onBlock(unitOff, codec, length, raw)
		}
	}
}

// section parses one whole section. Read and Recover differ only in how
// they surface its damage.
func (rd *reader) section(wantKind uint16, fn EntryFunc) (uint64, *FormatError, error) {
	if _, damage := rd.header(wantKind); damage != nil {
		return 0, damage, nil
	}
	return rd.blocks(fn, nil)
}

// readFull reads exactly len(p) bytes, converting any short read into a
// typed truncation error at the current offset.
func (rd *reader) readFull(p []byte, what string) *FormatError {
	n, err := io.ReadFull(rd.r, p)
	off := rd.off
	rd.off += int64(n)
	if rd.err = err; err != nil {
		return formatErr(ErrTruncated, off, "%s cut short after %d of %d bytes: %v", what, n, len(p), err)
	}
	return nil
}
