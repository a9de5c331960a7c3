package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/wal"
)

// A checkpoint holds the view as it lies in memory: the edge log in
// interner-id space, the two interners' slabs, the id → position arrays
// of the sorted vertex universe, and the folded adjacency. internal/wal
// frames the file (header, per-section CRC, footer); the sections and
// what is in them are defined here. All integers are little-endian.
//
//	meta     u64 edges, appends, epoch, autoSeq, srcKeys, dstKeys, exact;
//	         then the algebra's name and the auto-key base, each a uvarint
//	         length and that many bytes
//	srcOff   u32[srcKeys]  end offset of each source key in srcSlab
//	srcSlab  the source interner's key bytes, back to back, in id order
//	dstOff, dstSlab        the same for the destination interner
//	srcPos   i32[≤srcKeys] id → row of the adjacency; -1, or past the end:
//	         an id no edge references (left by a rolled-back batch)
//	dstPos   i32[≤dstKeys] id → column
//	keyOff   u32[edges]    end offset of each edge key in keySlab — or
//	         empty, with keySlab, when the keys are the run of the
//	         generator in meta: key i is the auto-key base followed by
//	         %012d of autoSeq − edges + i
//	keySlab  the edge keys' bytes, back to back, in log order
//	srcID    i32[edges]    source id of each edge
//	dstID    i32[edges]    destination id of each edge
//	out, in  [edges]       Eout(k, src), Ein(k, dst) through the ValueCodec
//	         — or empty, when no edge carried a weight on that side: every
//	         value is the algebra's One
//	rowPtr   u64[rows+1]   the adjacency CSR over the sorted universe
//	colIdx   u32[nnz]
//	val      [nnz]         through the ValueCodec
//
// An empty key or value section of a non-empty log is a column the view
// does not hold either (keyCol, View.out): what a checkpoint stores is
// what lies in memory. The id columns are there for every edge and give
// the log its length. A float64 view therefore costs 8 bytes per edge for
// an unkeyed, unweighted stream — and, for one that spells them out, 8
// more per weighted side and 4 bytes plus the key for its edge key — then
// 12 bytes per stored adjacency entry and 8 bytes plus the key per vertex
// and side (16 on the source side, which carries the row pointer).
// Readers accept the spelled-out form of a column that could have been
// left out (PRs 16–20 wrote every column in full) and do not keep it.
//
// Version 1 of the file held the position-space CSRs of Eout and Ein, to
// be inverted back into this log on every load; nothing has written it
// since PR 15, and wal.ParseCheckpoint refuses it by name.
const (
	secMeta uint32 = iota + 1
	secSrcOff
	secSrcSlab
	secDstOff
	secDstSlab
	secSrcPos
	secDstPos
	secKeyOff
	secKeySlab
	secSrcID
	secDstID
	secOut
	secIn
	secRowPtr
	secColIdx
	secVal

	numSections = int(secVal)
)

// ckptChunk is how many encoded bytes are staged before they are handed
// to the checkpoint writer, which buffers them into file-sized writes:
// the encoder's one buffer, whatever the view holds.
const ckptChunk = 16 << 10

// image is a view pinned for a checkpoint: everything the file will
// hold, captured by slice header under the view lock in O(1). The log
// is append-only past the captured lengths, the position arrays and the
// interner prefixes are never rewritten, and main is marked shared, so
// the image stays the view of its epoch while appends and folds go on.
type image[V any] struct {
	ops                     string
	log                     *logView[V]
	main                    *sparse.CSR[V]
	srcOff, dstOff          []uint32
	srcSlab, dstSlab        []byte
	appends, epoch, autoSeq int
	exact                   bool
	autoBase                string
}

// imageLocked pins the current state. The caller holds v.mu and has
// folded (materializeLocked), so main covers the whole log, the universe
// does too and main spans it.
func (v *View[V]) imageLocked() *image[V] {
	v.mainShared = true
	im := &image[V]{
		ops: v.ops.Name, log: v.logsLocked(), main: v.main.Matrix(),
		appends: v.appends, epoch: int(v.epoch.Load()), autoSeq: v.autoSeq,
		exact: v.exact, autoBase: v.autoBase,
	}
	im.srcOff, im.srcSlab = v.srcIn.Prefix(v.srcIn.Len())
	im.dstOff, im.dstSlab = v.dstIn.Prefix(v.dstIn.Len())
	return im
}

// sectionEncoder streams section bodies through one buffer. A write
// error is sticky, as in bufio: everything after it is a no-op and
// finish reports it.
type sectionEncoder struct {
	w   *wal.CheckpointWriter
	buf []byte
	err error
}

// section flushes what the previous section left and opens the next.
func (e *sectionEncoder) section(tag uint32) {
	e.flush()
	if e.err == nil {
		e.err = e.w.Section(tag)
	}
}

func (e *sectionEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// spill flushes once a chunk has accumulated.
func (e *sectionEncoder) spill() {
	if len(e.buf) >= ckptChunk {
		e.flush()
	}
}

func (e *sectionEncoder) finish() error {
	e.flush()
	return e.err
}

// putU32s writes a section that is one array of 4-byte words; an int32
// is written as the word with its bits (−1 is 0xFFFFFFFF).
func putU32s[T int32 | uint32](e *sectionEncoder, tag uint32, xs []T) {
	e.section(tag)
	for _, x := range xs {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(x))
		e.spill()
	}
}

func putVals[V any](e *sectionEncoder, tag uint32, vs []V, codec ValueCodec[V]) {
	e.section(tag)
	for _, v := range vs {
		e.buf = codec.Append(e.buf, v)
		e.spill()
	}
}

// putBytes writes a slab straight from where it lies.
func putBytes(e *sectionEncoder, tag uint32, b []byte) {
	e.section(tag)
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// encode writes the image as the sections above.
func (im *image[V]) encode(w *wal.CheckpointWriter, codec ValueCodec[V]) error {
	// Room past the chunk for the element whose append crosses it.
	e := &sectionEncoder{w: w, buf: make([]byte, 0, ckptChunk+256)}
	l := im.log
	edges := len(l.srcID)

	e.section(secMeta)
	exact := uint64(0)
	if im.exact {
		exact = 1
	}
	for _, x := range [...]uint64{
		uint64(edges), uint64(im.appends), uint64(im.epoch), uint64(im.autoSeq),
		uint64(len(im.srcOff) - 1), uint64(len(im.dstOff) - 1), exact,
	} {
		e.buf = appendU64(e.buf, x)
	}
	e.buf = appendStr(appendStr(e.buf, im.ops), im.autoBase)

	putU32s(e, secSrcOff, im.srcOff[1:])
	putBytes(e, secSrcSlab, im.srcSlab)
	putU32s(e, secDstOff, im.dstOff[1:])
	putBytes(e, secDstSlab, im.dstSlab)
	putU32s(e, secSrcPos, l.srcPos)
	putU32s(e, secDstPos, l.dstPos)

	// A key column that is the generator's one run is in meta already:
	// both of its sections stay empty. So does the section of a value
	// column that does not exist (putVals over nil).
	stored := !l.keys.oneRun(edges, im.autoBase, im.autoSeq)
	e.section(secKeyOff)
	if stored {
		end := 0
		l.keys.each(edges, func(r keyRun, stop int) {
			for i := r.at; i < stop; i++ {
				if end += l.keys.keyLen(r, i); end > math.MaxUint32 && e.err == nil {
					e.err = fmt.Errorf("stream: checkpoint: the log's edge keys exceed 4 GiB")
				}
				e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(end))
				e.spill()
			}
		})
	}
	e.section(secKeySlab)
	if stored {
		l.keys.each(edges, func(r keyRun, stop int) {
			for i := r.at; i < stop; i++ {
				e.buf = l.keys.appendKey(e.buf, r, i)
				e.spill()
			}
		})
	}

	putU32s(e, secSrcID, l.srcID)
	putU32s(e, secDstID, l.dstID)
	putVals(e, secOut, l.out, codec)
	putVals(e, secIn, l.in, codec)

	rowPtr, colIdx, val := im.main.Parts()
	e.section(secRowPtr)
	for _, p := range rowPtr {
		e.buf = appendU64(e.buf, uint64(p))
		e.spill()
	}
	putU32s(e, secColIdx, colIdx)
	putVals(e, secVal, val, codec)
	return e.finish()
}

// decodeCheckpoint reconstructs a View from a validated checkpoint file.
// Bytes that passed their checksums but do not decode into a consistent
// view are a *wal.CorruptError; a checkpoint written under another
// algebra is refused with a plain error.
func decodeCheckpoint[V any](ck *wal.Checkpoint, ops semiring.Ops[V], opt Options, codec ValueCodec[V]) (*View[V], error) {
	v, name, err := decodeSections(ck.Sections, ops, opt, codec)
	if err != nil {
		return nil, &wal.CorruptError{Path: ck.Path, Reason: err.Error()}
	}
	if name != ops.Name {
		return nil, fmt.Errorf("stream: checkpoint was written under algebra %q, opened with %q", name, ops.Name)
	}
	return v, nil
}

// sectionDecoder reads a checkpoint's sections. The first failure is
// sticky: every later read returns nothing, and the caller checks err
// once.
type sectionDecoder struct {
	secs []wal.Section
	err  error
}

func (d *sectionDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("stream: checkpoint: "+format, args...)
	}
}

// body returns a section's bytes, nothing once the decoder has failed.
func (d *sectionDecoder) body(tag uint32) []byte {
	if d.err != nil {
		return nil
	}
	return d.secs[tag-1].Body
}

// u32s reads a section that is one array of 4-byte words, as putU32s
// wrote them. Its length is the section's, so the allocation is bounded
// by the bytes present.
func u32s[T int32 | uint32](d *sectionDecoder, tag uint32, name string) []T {
	b := d.body(tag)
	if len(b)%4 != 0 {
		d.fail("%s section is %d bytes, not a whole number of 4-byte entries", name, len(b))
		return nil
	}
	xs := make([]T, len(b)/4)
	for i := range xs {
		xs[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

// indexes reads a section of 4-byte indices. A stored word of 2³¹ or more
// is no index, and is refused here by section and byte offset — not let
// through as a negative number for some later bounds check to catch.
// The one exception is the word 0xFFFFFFFF in a section that may hold
// "none" (a position map's −1).
func indexes(d *sectionDecoder, tag uint32, name string, none bool) []int32 {
	xs := u32s[int32](d, tag, name)
	for i, x := range xs {
		if x < 0 && !(none && x == -1) {
			d.fail("%s section: the word at byte offset %d is %#x, not an index below 2³¹", name, 4*i, uint32(x))
			return nil
		}
	}
	return xs
}

// vals decodes exactly n values that fill the section.
func vals[V any](d *sectionDecoder, tag uint32, name string, n int, codec ValueCodec[V]) []V {
	b := d.body(tag)
	if d.err != nil {
		return nil
	}
	vs := make([]V, n)
	for i := range vs {
		v, w, err := codec.Decode(b)
		if err != nil {
			d.fail("%s value %d: %v", name, i, err)
			return nil
		}
		vs[i], b = v, b[w:]
	}
	if len(b) != 0 {
		d.fail("%d trailing bytes after %d %s values", len(b), n, name)
	}
	return vs
}

// side rebuilds one side of the vertex universe: the interner from its
// offset and slab sections (the slab is copied: an interner outlives the
// file's bytes and appends to its slab), the id → position array, the
// sorted key Set the two describe, and the log's endpoint ids on that
// side, every one of which must name a vertex that has a position.
func (d *sectionDecoder) side(offTag, slabTag, posTag, idTag uint32, name string, want uint64) (in *keys.Interner, pos []int32, set *keys.Set, ids []int32) {
	ends := u32s[uint32](d, offTag, name+" key offset")
	pos = indexes(d, posTag, name+" position", true)
	ids = indexes(d, idTag, name+" id", false)
	if d.err != nil {
		return nil, nil, nil, nil
	}
	if uint64(len(ends)) != want {
		d.fail("counts %d %s keys, offsets hold %d", want, name, len(ends))
		return nil, nil, nil, nil
	}
	off := make([]uint32, len(ends)+1)
	copy(off[1:], ends)
	in, err := keys.InternerFromParts(off, slices.Clone(d.body(slabTag)))
	if err == nil {
		set, err = sideFromPos(in, pos)
	}
	if err != nil {
		d.fail("%s side: %v", name, err)
		return nil, nil, nil, nil
	}
	for i, id := range ids {
		if int(id) >= len(pos) || pos[id] < 0 {
			d.fail("edge %d names %s id %d, which is not in the vertex universe", i, name, id)
			return nil, nil, nil, nil
		}
	}
	return in, pos, set, ids
}

// edgeKeys reads the key column of an n-edge log whose generator stands
// at (base, seq). Empty sections mean the column is that generator's one
// run and was left to meta; stored keys are walked where they lie —
// offsets monotone, keys strictly ascending, the slab used up — and only
// if some key is not the one the run would hold are they kept, as
// substrings of one string. A log whose every key the run generates stays
// a run, whoever spelled it out.
func (d *sectionDecoder) edgeKeys(n int, base string, seq uint64) keyCol {
	off, slab := d.body(secKeyOff), d.body(secKeySlab)
	if d.err != nil || n == 0 && len(off) == 0 && len(slab) == 0 {
		return keyCol{}
	}
	// checkCounters has bounded seq, so it is an int.
	run := keyCol{runs: []keyRun{{base: base, seq: int(seq) - n, gen: true}}}
	isRun := run.oneRun(n, base, int(seq))
	if len(off) == 0 {
		switch {
		case len(slab) != 0:
			d.fail("no edge key offsets beside a key slab of %d bytes", len(slab))
		case !isRun:
			d.fail("no edge keys stored, and the generator (base %q, sequence %d) has not produced the log's %d", base, seq, n)
		}
		return run
	}
	if len(off) != 4*n {
		d.fail("edge key offsets are %d bytes, want %d for %d edges", len(off), 4*n, n)
		return keyCol{}
	}
	var prev []byte
	var buf [64]byte
	at := uint32(0)
	for i := 0; i < n; i++ {
		end := binary.LittleEndian.Uint32(off[4*i:])
		if end < at || uint64(end) > uint64(len(slab)) {
			d.fail("edge key offsets not monotone at key %d", i)
			return keyCol{}
		}
		key := slab[at:end]
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			d.fail("edge keys not strictly sorted at %d: %q >= %q", i, prev, key)
			return keyCol{}
		}
		if isRun {
			isRun = bytes.Equal(key, appendAutoKey(buf[:0], base, int(seq)-n+i))
		}
		prev, at = key, end
	}
	if int(at) != len(slab) {
		d.fail("edge key offsets end at %d, slab is %d bytes", at, len(slab))
		return keyCol{}
	}
	if isRun {
		return run
	}
	all := string(slab)
	ks := make([]string, n)
	at = 0
	for i := range ks {
		end := binary.LittleEndian.Uint32(off[4*i:])
		ks[i], at = all[at:end], end
	}
	return spelledKeys(ks)
}

// logVals reads one of the log's value columns: nil — the column does not
// exist, every entry is One — when the section is empty, and also when it
// spells out n values that each encode as One does (walked where they
// lie); anything else is decoded as the weighted column it is.
func logVals[V any](d *sectionDecoder, tag uint32, name string, n int, codec ValueCodec[V], one []byte) []V {
	b := d.body(tag)
	if len(b) == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		_, w, err := codec.Decode(b)
		if err != nil || !bytes.Equal(b[:w], one) {
			return vals(d, tag, name, n, codec)
		}
		b = b[w:]
	}
	if len(b) != 0 {
		d.fail("%d trailing bytes after %d %s values", len(b), n, name)
	}
	return nil
}

// decodeSections reconstructs a View from a checkpoint's sections,
// returning the algebra name it was written under. Nothing is built and
// inverted back: the log columns decode into the slices the view
// keeps, the edge keys are substrings of one string, and the position
// arrays are the stored ones. Every structural invariant is re-validated
// on the way in — interner offsets, position-map bijectivity, key
// sortedness, ids inside the universe, CSR shape (through NewCSR) and
// the cross-section counts — so damaged bytes that beat the checksums
// still cannot become a silently wrong view.
func decodeSections[V any](secs []wal.Section, ops semiring.Ops[V], opt Options, codec ValueCodec[V]) (*View[V], string, error) {
	if len(secs) != numSections {
		return nil, "", fmt.Errorf("stream: checkpoint holds %d sections, want %d", len(secs), numSections)
	}
	for i, s := range secs {
		if s.Tag != uint32(i+1) {
			return nil, "", fmt.Errorf("stream: checkpoint section %d is tagged %d", i+1, s.Tag)
		}
	}
	b := secs[secMeta-1].Body
	var meta [7]uint64
	var err error
	for i := range meta {
		if meta[i], b, err = decodeU64(b); err != nil {
			return nil, "", err
		}
	}
	name, b, err := decodeStr(b)
	if err != nil {
		return nil, "", err
	}
	autoBase, b, err := decodeStr(b)
	if err != nil {
		return nil, "", err
	}
	if len(b) != 0 || meta[6] > 1 {
		return nil, "", fmt.Errorf("stream: malformed checkpoint meta section")
	}
	if err := checkCounters(meta[1], meta[2], meta[3]); err != nil {
		return nil, "", err
	}

	// The id columns say how long the log is — they are stored for every
	// edge, so the bytes present bound every allocation below.
	d := &sectionDecoder{secs: secs}
	srcIn, srcPos, srcSet, srcID := d.side(secSrcOff, secSrcSlab, secSrcPos, secSrcID, "source", meta[4])
	dstIn, dstPos, dstSet, dstID := d.side(secDstOff, secDstSlab, secDstPos, secDstID, "destination", meta[5])
	edges := len(srcID)
	if d.err == nil && (uint64(edges) != meta[0] || len(dstID) != edges) {
		d.fail("counts %d edges; it holds %d source and %d destination ids", meta[0], edges, len(dstID))
	}
	edgeKeys := d.edgeKeys(edges, autoBase, meta[3])
	one := codec.Append(nil, ops.One)
	out := logVals(d, secOut, "Eout", edges, codec, one)
	in := logVals(d, secIn, "Ein", edges, codec, one)
	rp := d.body(secRowPtr)
	cols := indexes(d, secColIdx, "adjacency column", false)
	val := vals(d, secVal, "adjacency", len(cols), codec)
	if d.err != nil {
		return nil, "", d.err
	}
	if len(rp) != 8*(srcSet.Len()+1) {
		return nil, "", fmt.Errorf("stream: adjacency row pointer is %d bytes, want %d for %d rows", len(rp), 8*(srcSet.Len()+1), srcSet.Len())
	}
	rowPtr := make([]int32, srcSet.Len()+1)
	for i := range rowPtr {
		p := binary.LittleEndian.Uint64(rp[8*i:])
		if p > uint64(len(cols)) || p > math.MaxInt32 {
			return nil, "", fmt.Errorf("stream: adjacency row pointer section: rowPtr[%d] at byte offset %d is %d, past the %d stored entries", i, 8*i, p, len(cols))
		}
		rowPtr[i] = int32(p)
	}
	mainM, err := sparse.NewCSR(srcSet.Len(), dstSet.Len(), rowPtr, cols, val)
	if err != nil {
		return nil, "", err
	}
	main, err := assoc.New(srcSet, dstSet, mainM)
	if err != nil {
		return nil, "", err
	}
	v := &View[V]{
		ops:      ops,
		opt:      opt,
		keys:     edgeKeys,
		srcID:    srcID,
		dstID:    dstID,
		out:      out,
		in:       in,
		srcIn:    srcIn,
		dstIn:    dstIn,
		uRows:    srcSet,
		uCols:    dstSet,
		srcPos:   srcPos,
		dstPos:   dstPos,
		synced:   edges,
		folded:   edges,
		main:     main,
		appends:  int(meta[1]),
		exact:    meta[6] == 1,
		autoSeq:  int(meta[3]),
		autoBase: autoBase,
	}
	v.epoch.Store(int64(meta[2]))
	return v, name, nil
}

// checkCounters refuses batch counters and an auto-key sequence no view
// can have reached: they become ints, and the sequence is added to.
func checkCounters(appends, epoch, autoSeq uint64) error {
	if max(appends, epoch, autoSeq) > math.MaxInt64/2 {
		return fmt.Errorf("stream: checkpoint counters out of range (appends %d, epoch %d, auto-key sequence %d)", appends, epoch, autoSeq)
	}
	return nil
}

// sideFromPos inverts an id→position map into the sorted universe key
// Set it describes, validating that the positions are a bijection onto
// [0, count) and that the keys they order really are sorted (FromSorted
// re-checks strict ascent — the corruption detector for the key data).
// The map may stop short of the interner: ids past it have no position.
func sideFromPos(in *keys.Interner, pos []int32) (*keys.Set, error) {
	if len(pos) > in.Len() {
		return nil, fmt.Errorf("stream: position map covers %d ids, interner holds %d", len(pos), in.Len())
	}
	count := 0
	for _, p := range pos {
		if p >= 0 {
			count++
		}
	}
	sorted := make([]string, count)
	seen := make([]bool, count)
	for id, p := range pos {
		if p < 0 {
			continue
		}
		if int(p) >= count || seen[p] {
			return nil, fmt.Errorf("stream: position map is not a bijection at id %d", id)
		}
		seen[p] = true
	}
	in.KeysByPos(pos, sorted)
	set, err := keys.FromSorted(sorted)
	if err != nil {
		return nil, fmt.Errorf("stream: universe keys: %w", err)
	}
	set.Bind(&keys.InternIndex{In: in, Pos: pos})
	return set, nil
}
