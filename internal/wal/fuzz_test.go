package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"adjarray/internal/iofault"
)

// FuzzReplay: whatever one or two segment files hold, replaying them ends
// in one of three ways — every record delivered, a torn tail repaired
// (the file cut exactly at the reported offset, and clean from then on),
// or a *CorruptError with the files untouched. What is delivered is a run
// of consecutive sequence numbers above the floor, each record one the
// writer's own framing of it occurs in the files; nothing panics, and
// nothing is allocated beyond a small multiple of the bytes present.
func FuzzReplay(f *testing.F) {
	// A real log of two segments, whole; with its final frame torn; and
	// with the same tear in the first segment, where it is mid-log.
	dir := f.TempDir()
	w, err := NewWriter(iofault.OS, dir, 1, Options{Policy: SyncNever, SegmentBytes: 150})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 12; i++ {
		if _, err := w.Append(payloadFor(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(paths) < 2 {
		f.Fatalf("seed log has %d segments (%v), want at least two", len(paths), err)
	}
	first, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	second, err := os.ReadFile(paths[1])
	if err != nil {
		f.Fatal(err)
	}
	var start2 uint64
	if _, err := fmt.Sscanf(filepath.Base(paths[1]), "wal-%x.seg", &start2); err != nil {
		f.Fatal(err)
	}
	f.Add(first, second, start2, uint64(0))
	f.Add(first, second, start2, start2)
	f.Add(first, second[:len(second)-5], start2, uint64(0))
	f.Add(first[:len(first)-5], second, start2, uint64(0))
	f.Add(first, []byte{}, uint64(0), uint64(0))
	f.Add([]byte{}, []byte{}, uint64(0), uint64(3))

	f.Fuzz(func(t *testing.T, seg1, seg2 []byte, start2, fromSeq uint64) {
		dir := t.TempDir()
		files := map[string][]byte{filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 1)): seg1}
		if start2 > 1 {
			files[filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", start2))] = seg2
		}
		for path, data := range files {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		type record struct {
			seq     uint64
			payload []byte
		}
		replay := func() ([]record, RecoverStats, error) {
			var got []record
			st, err := ReplayFS(iofault.OS, dir, fromSeq, func(seq uint64, payload []byte) error {
				got = append(got, record{seq, bytes.Clone(payload)})
				return nil
			})
			return got, st, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, st, err := replay()
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*(len(seg1)+len(seg2))+1<<20); grew > limit {
			t.Fatalf("replaying %d bytes allocated %d", len(seg1)+len(seg2), grew)
		}

		if len(got) != st.Records || len(got) > 0 && st.LastSeq != got[len(got)-1].seq {
			t.Fatalf("delivered %v; stats say %+v", got, st)
		}
		for i, r := range got {
			if r.seq <= fromSeq || i > 0 && r.seq != got[i-1].seq+1 {
				t.Fatalf("delivery %d has seq %d after %v, floor %d", i, r.seq, got[:i], fromSeq)
			}
			if frame := appendRecord(nil, r.seq, r.payload); !bytes.Contains(seg1, frame) && !bytes.Contains(seg2, frame) {
				t.Fatalf("delivered record seq %d (%d bytes) is framed in neither file", r.seq, len(r.payload))
			}
		}
		size := func(path string) int64 {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("replay failed with %T (%v), want a *CorruptError", err, err)
			}
			for path, data := range files {
				if size(path) != int64(len(data)) {
					t.Fatalf("refused with %v, yet %s went from %d to %d bytes", err, path, len(data), size(path))
				}
			}
			return
		}
		if st.TornBytes == 0 {
			return
		}
		orig, ok := files[st.TornPath]
		if !ok || st.TornOffset+st.TornBytes != int64(len(orig)) || size(st.TornPath) != st.TornOffset {
			t.Fatalf("torn tail %+v: %s held %d bytes and holds %d", st, st.TornPath, len(orig), size(st.TornPath))
		}
		again, st2, err := replay()
		if err != nil || st2.TornBytes != 0 || len(again) != len(got) {
			t.Fatalf("after the repair: %d records, %+v, %v; the first replay delivered %d", len(again), st2, err, len(got))
		}
	})
}
