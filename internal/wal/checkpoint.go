package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"adjarray/internal/iofault"
)

// Checkpoint file layout, format 2 — the one format this package writes
// and reads. A fixed header, a run of tagged sections whose contents
// belong to the caller, and a footer:
//
//	header   offset 0   [8]byte    magic "ADJCKPT1"
//	         offset 8   uint32 LE  format version (2)
//	         offset 12  uint32 LE  CRC-32C over bytes [16, 24)
//	         offset 16  uint64 LE  covered seq (last WAL record folded in)
//	section  offset s   [n]byte    body, s a multiple of 8
//	         s+n        zero padding to the next multiple of 8
//	         then       uint32 LE  tag
//	                    uint32 LE  CRC-32C over the body, the tag and n
//	                    uint64 LE  body length n
//	footer              uint32 LE  section count
//	                    uint32 LE  CRC-32C over the footer's other 20 bytes
//	                    uint64 LE  total file length
//	                    [8]byte    end magic "ADJCKEND"
//
// A section's length and checksum close it instead of opening it, so a
// writer streams a body of any size through a fixed buffer without
// knowing its length first; the reader walks the sections backwards from
// the footer, reading the file in pieces through one buffer of its own.
// Every byte of the file is covered: the seq by the header CRC, each
// body, tag and length by its section CRC, the footer by its own, and
// padding, version and magics by being checked for their exact values —
// so a flipped bit anywhere, or a file cut at any byte (the footer is
// gone, or its length disagrees), fails validation.
//
// Version 1 — one opaque payload under one header CRC, last written by
// PR 15 — is refused by name: a second reader is a second format to keep
// right, and ParseCheckpoint says which build still has it.
const (
	ckptMagic    = "ADJCKPT1"
	ckptEndMagic = "ADJCKEND"

	ckptHeaderSize  = 8 + 4 + 4 + 8
	ckptTrailerSize = 4 + 4 + 8
	ckptFooterSize  = 4 + 4 + 8 + 8
)

// checkpointName renders the canonical file name for a checkpoint
// covering seq.
func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%016x.ckpt", seq) }

// ckptBufSize is the I/O granularity of a checkpoint: a file of any
// size goes to disk in writes of this many bytes (a body chunk at least
// as large is written as it is), and a small one in a single write; a
// load reads it back in pieces of at most this many.
const ckptBufSize = 256 << 10

// CheckpointWriter frames the sections of one format-2 checkpoint file.
// Section opens the next section; Write appends to the open section's
// body. Bytes are buffered — one fixed buffer per file, whatever its
// size — and an error is sticky, as with bufio.Writer.
type CheckpointWriter struct {
	bw       *bufio.Writer
	off      int64 // bytes written so far, buffered ones included
	sections uint32
	open     bool
	tag      uint32
	crc      uint32
	n        uint64 // body bytes of the open section
}

func (w *CheckpointWriter) raw(p []byte) error {
	n, err := w.bw.Write(p)
	w.off += int64(n)
	return err
}

// Write appends p to the open section's body.
func (w *CheckpointWriter) Write(p []byte) (int, error) {
	if !w.open {
		return 0, fmt.Errorf("wal: checkpoint write outside a section")
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.n += uint64(len(p))
	return len(p), w.raw(p)
}

// Section closes the open section, if any, and opens one with the given
// tag. Tags are the caller's; the loader hands them back in file order.
func (w *CheckpointWriter) Section(tag uint32) error {
	if err := w.closeSection(); err != nil {
		return err
	}
	w.open, w.tag, w.crc, w.n = true, tag, 0, 0
	return nil
}

func (w *CheckpointWriter) closeSection() error {
	if !w.open {
		return nil
	}
	w.open = false
	w.sections++
	var t [8 + ckptTrailerSize]byte
	pad := int(-w.n & 7)
	binary.LittleEndian.PutUint32(t[pad:], w.tag)
	binary.LittleEndian.PutUint64(t[pad+8:], w.n)
	binary.LittleEndian.PutUint32(t[pad+4:], trailerCRC(w.crc, t[pad:]))
	return w.raw(t[:pad+ckptTrailerSize])
}

// trailerCRC extends a body's CRC over its trailer's tag and length —
// everything in the trailer but the CRC field itself.
func trailerCRC(body uint32, t []byte) uint32 {
	return crc32.Update(crc32.Update(body, castagnoli, t[:4]), castagnoli, t[8:ckptTrailerSize])
}

func (w *CheckpointWriter) finish() error {
	if err := w.closeSection(); err != nil {
		return err
	}
	var f [ckptFooterSize]byte
	binary.LittleEndian.PutUint32(f[0:], w.sections)
	binary.LittleEndian.PutUint64(f[8:], uint64(w.off)+ckptFooterSize)
	copy(f[16:], ckptEndMagic)
	binary.LittleEndian.PutUint32(f[4:], footerCRC(f[:]))
	if err := w.raw(f[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// footerCRC covers the footer's section count, total length and end
// magic — everything in it but the CRC field itself.
func footerCRC(f []byte) uint32 {
	return crc32.Update(crc32.Checksum(f[:4], castagnoli), castagnoli, f[8:ckptFooterSize])
}

// WriteCheckpointFS atomically writes a format-2 checkpoint covering
// every WAL record with sequence number <= seq: temp file, the sections
// emit writes, fsync, rename into place, directory fsync. It returns the
// published path and the file's size. A crash at any point leaves either
// no new checkpoint or a complete one. On failure the temp file is
// reaped best-effort; ReapTempCheckpoints covers the cases where even
// the reap fails (disk errors, process death).
func WriteCheckpointFS(fsys iofault.FS, dir string, seq uint64, emit func(w *CheckpointWriter) error) (path string, size int64, err error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	final := filepath.Join(dir, checkpointName(seq))
	tmp, err := fsys.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", 0, err
	}
	tmpPath := tmp.Name()
	w := &CheckpointWriter{bw: bufio.NewWriterSize(tmp, ckptBufSize)}
	var hdr [ckptHeaderSize]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], 2)
	binary.LittleEndian.PutUint64(hdr[16:], seq)
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(hdr[16:], castagnoli))
	err = w.raw(hdr[:])
	if err == nil {
		err = emit(w)
	}
	if err == nil {
		err = w.finish()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		// Best-effort unwind of a temp file that was never published; the
		// write/sync error that triggered cleanup is the one returned.
		tmp.Close()          //adjlint:ignore syncerr error-path cleanup of unpublished temp file
		fsys.Remove(tmpPath) //adjlint:ignore syncerr error-path cleanup of unpublished temp file
		return "", 0, err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpPath) //adjlint:ignore syncerr error-path cleanup of unpublished temp file
		return "", 0, err
	}
	if err := fsys.Rename(tmpPath, final); err != nil {
		fsys.Remove(tmpPath) //adjlint:ignore syncerr error-path cleanup of unpublished temp file
		return "", 0, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return "", 0, err
	}
	return final, w.off, nil
}

// ReapTempCheckpoints removes leftover ckpt-*.tmp files — orphans from
// a checkpoint write that died (or whose own cleanup Remove faulted)
// between CreateTemp and rename. Called on open and after failed
// checkpoint writes; a temp file is never a recovery source, so
// removal is always safe.
func ReapTempCheckpoints(fsys iofault.FS, dir string) (removed int, err error) {
	ents, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if rerr := fsys.Remove(filepath.Join(dir, name)); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		removed++
	}
	return removed, err
}

// checkpointInfo is one discovered checkpoint file.
type checkpointInfo struct {
	path string
	seq  uint64
}

// listCheckpoints returns checkpoint files sorted newest (highest seq)
// first. Files whose names do not parse are ignored — they cannot be
// loaded by name anyway and must not block recovery from good ones.
func listCheckpoints(fsys iofault.FS, dir string) ([]checkpointInfo, error) {
	ents, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cks []checkpointInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt")
		seq, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		cks = append(cks, checkpointInfo{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].seq > cks[j].seq })
	return cks, nil
}

// Section is one validated section of a checkpoint: its tag and where
// its body lies in the file. The body itself is not held; ReadSection
// reads it.
type Section struct {
	Tag uint32
	// Len is the body's length in bytes.
	Len int64
	off int64  // where the body starts in the file
	crc uint32 // the body's CRC-32C, as validation read it
}

// Checkpoint is a checkpoint file that passed validation, open for
// reading its sections. A Checkpoint from LoadCheckpointFS holds its
// file open until Close.
type Checkpoint struct {
	// Path is the file the checkpoint was read from.
	Path string
	// Seq is the last WAL record the checkpoint covers.
	Seq uint64
	// Sections are the file's sections, in file order.
	Sections []Section

	r    io.ReaderAt
	file iofault.File // closed by Close; nil when the caller owns r
	buf  []byte       // the one read buffer: validation's, then every ReadSection's
}

// readAt fills p from the file at path, which r reads, at off. A file
// that ends early has changed since its size was taken.
func readAt(r io.ReaderAt, path string, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("wal: read %s at %d: %w", path, off, err)
}

// pieces reads the n bytes at off through ck.buf, step bytes at a time,
// hands each piece to fn when there is one, and returns their CRC-32C.
func (ck *Checkpoint) pieces(off, n, step int64, fn func(p []byte) error) (uint32, error) {
	var crc uint32
	for end := off + n; off < end; {
		p := ck.buf[:min(step, end-off)]
		if err := readAt(ck.r, ck.Path, p, off); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, p)
		if fn != nil {
			if err := fn(p); err != nil {
				return 0, err
			}
		}
		off += int64(len(p))
	}
	return crc, nil
}

// ParseCheckpoint validates the size bytes of one checkpoint file that r
// reads. Damage of any kind — and a version this package does not read —
// is a *CorruptError naming path; a failed read is returned wrapped, not
// as damage. The file is read through one buffer of at most ckptBufSize
// bytes: the header, then the footer, then every section's trailer,
// padding and body from the last section back — so checking a file of
// any size holds none of it.
func ParseCheckpoint(path string, r io.ReaderAt, size int64) (*Checkpoint, error) {
	corrupt := func(off int64, format string, args ...any) (*Checkpoint, error) {
		return nil, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf(format, args...)}
	}
	ck := &Checkpoint{Path: path, r: r}
	if size < ckptHeaderSize {
		return corrupt(0, "short checkpoint header")
	}
	var hdr [ckptHeaderSize]byte
	if err := readAt(ck.r, ck.Path, hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != ckptMagic {
		return corrupt(0, "bad checkpoint magic")
	}
	ck.Seq = binary.LittleEndian.Uint64(hdr[16:])
	switch v := binary.LittleEndian.Uint32(hdr[8:]); v {
	case 2:
	case 1:
		return corrupt(8, "ADJCKPT format 1 is no longer readable; open the directory once with a build at or before b3cab25 (PR 22) and checkpoint")
	default:
		return corrupt(8, "unsupported checkpoint version %d", v)
	}
	if crc32.Checksum(hdr[16:], castagnoli) != binary.LittleEndian.Uint32(hdr[12:]) {
		return corrupt(12, "checkpoint header checksum mismatch")
	}
	end := size - ckptFooterSize
	if end < ckptHeaderSize {
		return corrupt(size, "checkpoint ends before its footer")
	}
	var foot [ckptFooterSize]byte
	if err := readAt(ck.r, ck.Path, foot[:], end); err != nil {
		return nil, err
	}
	if string(foot[16:]) != ckptEndMagic {
		return corrupt(end+16, "bad checkpoint end magic (file cut short?)")
	}
	if total := binary.LittleEndian.Uint64(foot[8:]); total != uint64(size) {
		return corrupt(end+8, "checkpoint size %d does not match footer length %d", size, total)
	}
	if binary.LittleEndian.Uint32(foot[4:]) != footerCRC(foot[:]) {
		return corrupt(end+4, "checkpoint footer checksum mismatch")
	}
	// Every section takes at least its trailer, which bounds the count
	// before anything is allocated for it.
	count := int64(binary.LittleEndian.Uint32(foot[:]))
	if count > (end-ckptHeaderSize)/ckptTrailerSize {
		return corrupt(end, "footer counts %d sections in %d bytes", count, end-ckptHeaderSize)
	}
	ck.buf = make([]byte, min(size, ckptBufSize))
	ck.Sections = make([]Section, count)
	// A trailer is read with the 8 bytes before it, which hold the
	// section's padding.
	var tb [8 + ckptTrailerSize]byte
	for i := count - 1; i >= 0; i-- {
		t := end - ckptTrailerSize
		if t < ckptHeaderSize {
			return corrupt(end, "section %d: trailer runs into the header", i)
		}
		lo := max(t-8, ckptHeaderSize)
		tail := tb[:end-lo]
		if err := readAt(ck.r, ck.Path, tail, lo); err != nil {
			return nil, err
		}
		tr := tail[t-lo:]
		n := binary.LittleEndian.Uint64(tr[8:])
		if n > uint64(t-ckptHeaderSize) {
			return corrupt(t+8, "section %d: length %d exceeds the file", i, n)
		}
		start := t - (int64(n+7) &^ 7)
		if start < ckptHeaderSize {
			return corrupt(t+8, "section %d: length %d exceeds the file", i, n)
		}
		for _, b := range tail[start+int64(n)-lo : t-lo] {
			if b != 0 {
				return corrupt(start+int64(n), "section %d: non-zero padding", i)
			}
		}
		crc, err := ck.pieces(start, int64(n), int64(len(ck.buf)), nil)
		if err != nil {
			return nil, err
		}
		if trailerCRC(crc, tr) != binary.LittleEndian.Uint32(tr[4:]) {
			return corrupt(start, "section %d: checksum mismatch", i)
		}
		ck.Sections[i] = Section{Tag: binary.LittleEndian.Uint32(tr), Len: int64(n), off: start, crc: crc}
		end = start
	}
	if end != ckptHeaderSize {
		return corrupt(ckptHeaderSize, "%d unaccounted bytes before the first section", end-ckptHeaderSize)
	}
	return ck, nil
}

// ReadSection reads section i's body again, through the checkpoint's one
// buffer, handing fn each piece in file order; every piece but the last
// is a whole multiple of width bytes (a width up to the buffer's length,
// which is ckptBufSize or the whole file), so a decoder of fixed-width
// entries never sees one cut in two. fn's error ends the read and is
// returned. At the end the pieces must hash to what validation read, or
// the body changed in between: a *CorruptError, and whatever fn made of
// the pieces is not the checkpoint.
func (ck *Checkpoint) ReadSection(i, width int, fn func(p []byte) error) error {
	s := ck.Sections[i]
	step := int64(len(ck.buf) / width * width)
	if step == 0 { // a file shorter than one entry: the body is one piece
		step = int64(len(ck.buf))
	}
	crc, err := ck.pieces(s.off, s.Len, step, fn)
	if err == nil && crc != s.crc {
		err = &CorruptError{Path: ck.Path, Offset: s.off, Reason: fmt.Sprintf("section %d: checksum mismatch on the second read", i)}
	}
	return err
}

// Close closes the file a loaded checkpoint holds open.
func (ck *Checkpoint) Close() error {
	if ck.file == nil {
		return nil
	}
	return ck.file.Close()
}

// LoadCheckpointFS returns the newest checkpoint that passes
// validation, open for reading (the caller closes it), and the per-file
// errors of any newer checkpoints skipped on the way (stale checkpoint +
// longer WAL replay is the designed fallback). A failed read skips a
// file as damage does. With no checkpoint files at all it returns a nil
// checkpoint — an empty-state recovery, not an error. When checkpoint
// files exist but every one is invalid it fails with the newest file's
// error: silently restarting empty would discard state that provably
// existed.
func LoadCheckpointFS(fsys iofault.FS, dir string) (ck *Checkpoint, skipped []error, err error) {
	cks, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	for _, info := range cks {
		ck, rerr := openCheckpoint(fsys, info)
		if rerr == nil {
			return ck, skipped, nil
		}
		skipped = append(skipped, rerr)
	}
	if len(skipped) > 0 {
		return nil, skipped, skipped[0]
	}
	return nil, nil, nil
}

// openCheckpoint opens and validates one checkpoint file.
func openCheckpoint(fsys iofault.FS, info checkpointInfo) (*Checkpoint, error) {
	fi, err := fsys.Stat(info.path)
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(info.path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	ck, err := ParseCheckpoint(info.path, f, fi.Size())
	if err == nil && ck.Seq != info.seq {
		err = &CorruptError{Path: info.path, Offset: 16,
			Reason: fmt.Sprintf("header seq %d does not match file name seq %d", ck.Seq, info.seq)}
	}
	if err != nil {
		f.Close() //adjlint:ignore syncerr a file only read, refused; the validation error is the one reported
		return nil, err
	}
	ck.file = f
	return ck, nil
}

// RetireCheckpointsFS deletes all but the keep newest checkpoint files.
func RetireCheckpointsFS(fsys iofault.FS, dir string, keep int) (removed int, err error) {
	if keep < 1 {
		keep = 1
	}
	cks, err := listCheckpoints(fsys, dir)
	if err != nil {
		return 0, err
	}
	for _, ck := range cks[min(keep, len(cks)):] {
		if err := fsys.Remove(ck.path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
