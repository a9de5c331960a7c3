package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"adjarray/internal/iofault"
)

// RecoverStats reports what ReplayFS found and repaired.
type RecoverStats struct {
	// Segments is how many segment files were read.
	Segments int
	// Records is how many records were delivered to the callback.
	Records int
	// LastSeq is the sequence number of the last valid record in the
	// log (0 when the log holds none at or above the replay floor).
	LastSeq uint64
	// TornPath/TornOffset/TornBytes describe a repaired torn tail: the
	// file that was truncated, the offset it was cut at, and how many
	// bytes were discarded. TornBytes == 0 means the log ended cleanly.
	TornPath   string
	TornOffset int64
	TornBytes  int64
}

// segmentInfo is one discovered segment file.
type segmentInfo struct {
	path     string
	startSeq uint64
}

// listSegments returns the log's segment files sorted by start seq.
func listSegments(fsys iofault.FS, dir string) ([]segmentInfo, error) {
	ents, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		seq, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return nil, &CorruptError{Path: filepath.Join(dir, name), Reason: "unparseable segment name"}
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), startSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].startSeq < segs[j].startSeq })
	for i := 1; i < len(segs); i++ {
		if segs[i].startSeq == segs[i-1].startSeq {
			return nil, &CorruptError{Path: segs[i].path, Reason: "duplicate segment start seq"}
		}
	}
	return segs, nil
}

// ReplayFS scans the log and calls fn once per valid record with seq >=
// fromSeq, in sequence order; the payload fn is handed lives only until
// fn returns. Records below fromSeq (covered by a checkpoint) are skipped
// without validation when their whole segment is below the floor, and
// validated-but-skipped when they share a segment with needed records.
// Every segment is read through one window (see segment), so a replay
// holds no segment whole.
//
// A torn tail (see the package comment) is truncated in place and
// reported through RecoverStats. Mid-log damage — a checksum failure
// that is not the final frame, a sequence gap or repeat, a segment
// whose first record does not match its file name — aborts with a
// *CorruptError. An error from fn aborts the replay unchanged.
func ReplayFS(fsys iofault.FS, dir string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (RecoverStats, error) {
	var st RecoverStats
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return st, err
	}
	if len(segs) == 0 {
		return st, nil
	}
	// Drop segments wholly below the floor: segment i spans
	// [start_i, start_{i+1}-1], so it is skippable when the NEXT
	// segment starts at or below fromSeq+1 (its whole range is covered
	// by the checkpoint).
	first := 0
	for first+1 < len(segs) && segs[first+1].startSeq <= fromSeq+1 {
		first++
	}
	if segs[first].startSeq > fromSeq+1 {
		// The records in (fromSeq, start) are missing: a retired (or
		// lost) segment the checkpoint does not cover.
		return st, &CorruptError{Path: segs[first].path,
			Reason: fmt.Sprintf("log starts at seq %d but replay needs seq %d", segs[first].startSeq, fromSeq+1)}
	}
	segs = segs[first:]

	var s segment // one window, reused from segment to segment
	defer s.close()
	expect := segs[0].startSeq
	for si, seg := range segs {
		last := si == len(segs)-1
		if err := s.open(fsys, seg.path); err != nil {
			return st, err
		}
		st.Segments++
		var off int64
		for off < s.size {
			seq, payload, next, ok, perr := s.record(off)
			if perr != nil {
				return st, perr
			}
			if !ok {
				// Torn frame. Only the log's very tail may be repaired;
				// the same bytes mid-log mean the history is cut.
				if !last {
					return st, &CorruptError{Path: seg.path, Offset: off, Reason: "torn record before the log tail"}
				}
				st.TornPath, st.TornOffset, st.TornBytes = seg.path, off, s.size-off
				s.close()
				if err := fsys.Truncate(seg.path, off); err != nil {
					return st, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
				}
				return st, nil
			}
			if off == 0 && seq != seg.startSeq {
				return st, &CorruptError{Path: seg.path, Offset: off,
					Reason: fmt.Sprintf("first record seq %d does not match segment name seq %d", seq, seg.startSeq)}
			}
			if seq != expect {
				// One legitimate gap shape exists: at a segment start,
				// when every skipped seq is covered by the checkpoint
				// (expect..seq-1 all <= fromSeq). That is the designed
				// stale-WAL-tail + newer-checkpoint recovery — a writer
				// reopened at checkpointSeq+1 after un-synced records
				// below it were lost. Anywhere else a gap is corruption.
				if off == 0 && seq > expect && seq <= fromSeq+1 {
					expect = seq
				} else {
					return st, &CorruptError{Path: seg.path, Offset: off,
						Reason: fmt.Sprintf("sequence gap: record seq %d, expected %d", seq, expect)}
				}
			}
			expect++
			st.LastSeq = seq
			if seq > fromSeq {
				if err := fn(seq, payload); err != nil {
					return st, err
				}
				st.Records++
			}
			off = next
		}
	}
	return st, nil
}

// RetireSegmentsFS deletes segments every record of which has seq <=
// uptoSeq (i.e. is covered by a checkpoint at uptoSeq). The last
// segment is never deleted — its end is not knowable from names alone,
// and the writer may still be appending to its successor numbering.
func RetireSegmentsFS(fsys iofault.FS, dir string, uptoSeq uint64) (removed int, err error) {
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(segs); i++ {
		// Segment i ends at segs[i+1].startSeq - 1.
		if segs[i+1].startSeq-1 <= uptoSeq {
			if err := fsys.Remove(segs[i].path); err != nil {
				return removed, err
			}
			removed++
		}
	}
	if removed > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
