package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"adjarray/internal/iofault"
)

// ErrCorrupt is the sentinel every unrecoverable log/checkpoint damage
// matches: errors.Is(err, wal.ErrCorrupt) distinguishes "the data is
// bad, refuse to serve" from ordinary I/O failures.
var ErrCorrupt = errors.New("wal: corrupt")

// CorruptError pins unrecoverable damage to a file and offset. It
// matches ErrCorrupt under errors.Is.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt %s @%d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) hold for every CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// castagnoli is the CRC-32C polynomial table — the checksum with
// hardware support on every platform this runs on (SSE4.2 / ARMv8 CRC
// instructions via hash/crc32's specialized paths).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// recordHeaderSize is the fixed frame prefix: length, CRC, seq.
	recordHeaderSize = 4 + 4 + 8
	// maxRecordPayload bounds a single record; a length field above it
	// is treated as frame damage rather than an allocation request.
	maxRecordPayload = 1 << 30
)

// appendRecord appends one framed record to dst and returns it.
func appendRecord(dst []byte, seq uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crcAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC patched below
	seqAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[seqAt:], castagnoli)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst
}

// segment reads one segment file through a window of its bytes: a
// replay holds one window, whatever the log's size, grown only to the
// longest record it meets.
type segment struct {
	f    iofault.File
	path string
	size int64
	buf  []byte // the file's bytes from at
	at   int64
}

// open points s at the segment file at path, closing the one before.
func (s *segment) open(fsys iofault.FS, path string) error {
	s.close()
	fi, err := fsys.Stat(path)
	if err != nil {
		return err
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	s.f, s.path, s.size, s.buf, s.at = f, path, fi.Size(), s.buf[:0], 0
	return nil
}

// close closes the file s reads, if it has one open.
func (s *segment) close() {
	if s.f != nil {
		s.f.Close() //adjlint:ignore syncerr a file only read; what was read from it is checked
		s.f = nil
	}
}

// replayWindow is how many bytes a segment read asks for at once.
const replayWindow = 64 << 10

// bytes returns the file's bytes [off, off+k), which the file holds.
// They live until the next call.
func (s *segment) bytes(off int64, k int64) ([]byte, error) {
	if off < s.at || off+k > s.at+int64(len(s.buf)) {
		n := min(max(k, replayWindow), s.size-off)
		s.buf, s.at = slices.Grow(s.buf[:0], int(n))[:n], off
		if err := readAt(s.f, s.path, s.buf, off); err != nil {
			return nil, err
		}
	}
	return s.buf[off-s.at:][:k], nil
}

// record decodes the record at off. It returns the record's seq, its
// payload (valid until the next read), and the offset just past it.
//
// ok=false with err=nil means the frame is torn: the file ends before
// the record completes, or its checksum fails and the frame is the last
// thing in the file (the signature of an interrupted in-place write). A
// checksum failure with further bytes after the frame is mid-log damage
// and comes back as a *CorruptError — the caller must not truncate
// there.
func (s *segment) record(off int64) (seq uint64, payload []byte, next int64, ok bool, err error) {
	rest := s.size - off
	if rest < recordHeaderSize {
		return 0, nil, off, false, nil // torn header
	}
	hdr, err := s.bytes(off, recordHeaderSize)
	if err != nil {
		return 0, nil, off, false, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxRecordPayload && rest > recordHeaderSize {
		// An absurd length field cannot be distinguished from a torn
		// partial header by content, but it CAN be distinguished by
		// position: mid-file it means the framing is lost.
		return 0, nil, off, false, &CorruptError{Path: s.path, Offset: off, Reason: fmt.Sprintf("record length %d exceeds limit", n)}
	}
	end := int64(recordHeaderSize) + int64(n)
	if rest < end {
		return 0, nil, off, false, nil // torn payload, or a torn header's length
	}
	frame, err := s.bytes(off, end)
	if err != nil {
		return 0, nil, off, false, err
	}
	wantCRC := binary.LittleEndian.Uint32(frame[4:])
	gotCRC := crc32.Checksum(frame[8:], castagnoli)
	if gotCRC != wantCRC {
		if rest == end {
			// The damaged frame is the final bytes of the log: a torn
			// in-place write of the last record. Recoverable.
			return 0, nil, off, false, nil
		}
		return 0, nil, off, false, &CorruptError{Path: s.path, Offset: off, Reason: "record checksum mismatch"}
	}
	seq = binary.LittleEndian.Uint64(frame[8:])
	return seq, frame[recordHeaderSize:], off + end, true, nil
}
