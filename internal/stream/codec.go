package stream

import (
	"encoding/binary"
	"fmt"
	"math"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/shard"
	"adjarray/internal/sparse"
)

// ValueCodec serializes the view's value type V for the WAL and
// checkpoint formats. Append encodes one value; Decode returns the
// value and how many bytes it consumed. Encodings may be
// variable-width but must be self-delimiting.
type ValueCodec[V any] struct {
	Append func(dst []byte, v V) []byte
	Decode func(b []byte) (V, int, error)
}

// Float64Codec is the fixed 8-byte IEEE-754 little-endian codec — the
// codec for the float64 views the commands serve.
func Float64Codec() ValueCodec[float64] {
	return ValueCodec[float64]{
		Append: func(dst []byte, v float64) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		},
		Decode: func(b []byte) (float64, int, error) {
			if len(b) < 8 {
				return 0, 0, fmt.Errorf("stream: truncated float64 value")
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b)), 8, nil
		},
	}
}

// defaultCodec resolves the built-in codec for V when the caller did
// not supply one. Only float64 has a default.
func defaultCodec[V any]() (ValueCodec[V], bool) {
	var zero V
	if _, ok := any(zero).(float64); !ok {
		return ValueCodec[V]{}, false
	}
	f := Float64Codec()
	return ValueCodec[V]{
		Append: func(dst []byte, v V) []byte { return f.Append(dst, any(v).(float64)) },
		Decode: func(b []byte) (V, int, error) {
			x, n, err := f.Decode(b)
			if err != nil {
				var z V
				return z, 0, err
			}
			return any(x).(V), n, nil
		},
	}, true
}

// --- primitive helpers -------------------------------------------------

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeStr(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("stream: truncated string")
	}
	return string(b[w : w+int(n)]), b[w+int(n):], nil
}

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func decodeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("stream: truncated u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func decodeI32s(b []byte) ([]int32, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("stream: truncated i32 slice")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > math.MaxInt32 || len(b) < n*4 {
		return nil, nil, fmt.Errorf("stream: truncated i32 slice body (n=%d)", n)
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return xs, b[n*4:], nil
}

func appendStrs(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

func decodeStrs(b []byte) ([]string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("stream: truncated string slice")
	}
	b = b[w:]
	ss := make([]string, n)
	var err error
	for i := range ss {
		if ss[i], b, err = decodeStr(b); err != nil {
			return nil, nil, err
		}
	}
	return ss, b, nil
}

// --- WAL batch records -------------------------------------------------

// Edge flag bits in the WAL batch encoding.
const (
	edgeHasOut = 1 << 0
	edgeHasIn  = 1 << 1
)

// appendBatch encodes one edge batch as a WAL record payload. Edges
// are stored verbatim — including empty auto-assign keys, which replay
// re-derives identically because autoSeq/autoBase are checkpointed.
func appendBatch[V any](dst []byte, edges []Edge[V], codec ValueCodec[V]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		var flags byte
		if e.HasOut {
			flags |= edgeHasOut
		}
		if e.HasIn {
			flags |= edgeHasIn
		}
		dst = append(dst, flags)
		dst = appendStr(dst, e.Key)
		dst = appendStr(dst, e.Src)
		dst = appendStr(dst, e.Dst)
		if e.HasOut {
			dst = codec.Append(dst, e.Out)
		}
		if e.HasIn {
			dst = codec.Append(dst, e.In)
		}
	}
	return dst
}

// decodeBatch decodes a WAL record payload back into an edge batch.
func decodeBatch[V any](b []byte, codec ValueCodec[V]) ([]Edge[V], error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)) {
		return nil, fmt.Errorf("stream: truncated batch header")
	}
	b = b[w:]
	edges := make([]Edge[V], n)
	var err error
	for i := range edges {
		if len(b) < 1 {
			return nil, fmt.Errorf("stream: truncated edge %d", i)
		}
		flags := b[0]
		b = b[1:]
		e := &edges[i]
		if e.Key, b, err = decodeStr(b); err != nil {
			return nil, err
		}
		if e.Src, b, err = decodeStr(b); err != nil {
			return nil, err
		}
		if e.Dst, b, err = decodeStr(b); err != nil {
			return nil, err
		}
		if flags&edgeHasOut != 0 {
			v, w, err := codec.Decode(b)
			if err != nil {
				return nil, err
			}
			e.Out, e.HasOut, b = v, true, b[w:]
		}
		if flags&edgeHasIn != 0 {
			v, w, err := codec.Decode(b)
			if err != nil {
				return nil, err
			}
			e.In, e.HasIn, b = v, true, b[w:]
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("stream: %d trailing bytes after batch", len(b))
	}
	return edges, nil
}

// --- checkpoint payloads -----------------------------------------------

// ckptFormat versions the stream-level checkpoint payload inside the
// wal checkpoint envelope (which has its own magic/version/CRC).
const ckptFormat = 1

// encodeViewLocked serializes the full view state. The caller holds
// v.mu and must have folded first (materializeLocked), so the pending
// backlog is empty, the universe covers the whole log and main spans it
// — none of that needs to be in the format. The format predates the
// id-space log and keeps its position-space incidence CSRs: the log's
// ids are mapped through the position arrays as they are written.
func (v *View[V]) encodeViewLocked(dst []byte, codec ValueCodec[V]) []byte {
	dst = append(dst, ckptFormat)
	dst = appendStr(dst, v.eng.Ops.Name)
	dst = appendU64(dst, uint64(len(v.keys)))
	dst = appendU64(dst, uint64(v.appends))
	dst = appendU64(dst, uint64(v.epoch))
	dst = appendU64(dst, uint64(v.autoSeq))
	if v.exact {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendStr(dst, v.autoBase)
	lastKey := ""
	if n := len(v.keys); n > 0 {
		lastKey = v.keys[n-1]
	}
	dst = appendStr(dst, lastKey)
	dst = v.srcIn.AppendBinary(dst)
	dst = v.dstIn.AppendBinary(dst)
	dst = appendPosMap(dst, v.srcPos, v.srcIn.Len())
	dst = appendPosMap(dst, v.dstPos, v.dstIn.Len())
	dst = appendStrs(dst, v.keys)
	dst = sparse.AppendUnitRowsBinary(dst, v.uRows.Len(), v.srcID, v.srcPos, v.out, codec.Append)
	dst = sparse.AppendUnitRowsBinary(dst, v.uCols.Len(), v.dstID, v.dstPos, v.in, codec.Append)
	dst = v.main.Matrix().AppendBinary(dst, codec.Append)
	return dst
}

// appendPosMap writes an id→position array as decodeI32s reads it,
// extended with -1 to the n ids its interner holds: ids past the array
// are orphans of rolled-back batches, and the decoder wants a position
// for every interned id.
func appendPosMap(dst []byte, pos []int32, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, p := range pos {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	for i := len(pos); i < n; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, math.MaxUint32)
	}
	return dst
}

// sideFromPos inverts an id→position map into the sorted universe key
// Set it describes and the id at each position, validating that the
// positions are a bijection onto [0, count) and that the keys they order
// really are sorted (FromSorted re-checks strict ascent — the corruption
// detector for the key data).
func sideFromPos(in *keys.Interner, pos []int32) (set *keys.Set, byPos []int32, err error) {
	if len(pos) != in.Len() {
		return nil, nil, fmt.Errorf("stream: position map covers %d ids, interner holds %d", len(pos), in.Len())
	}
	count := 0
	for _, p := range pos {
		if p >= 0 {
			count++
		}
	}
	sorted := make([]string, count)
	byPos = make([]int32, count)
	seen := make([]bool, count)
	for id, p := range pos {
		if p < 0 {
			continue
		}
		if int(p) >= count || seen[p] {
			return nil, nil, fmt.Errorf("stream: position map is not a bijection at id %d", id)
		}
		seen[p] = true
		sorted[p] = in.Key(int32(id))
		byPos[p] = int32(id)
	}
	set, err = keys.FromSorted(sorted)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: universe keys: %w", err)
	}
	set.Bind(&keys.InternIndex{In: in, Pos: pos})
	return set, byPos, nil
}

// decodeView reconstructs a View from a checkpoint payload. Every
// structural invariant is re-validated on the way in: interner offsets,
// position-map bijectivity, key-set sortedness, CSR shape (through
// NewCSR), one entry per incidence row, and the cross-array dimension
// agreement — damaged bytes that beat the outer CRC still cannot become
// a silently wrong view.
func decodeView[V any](payload []byte, ops semiring.Ops[V], opt Options, codec ValueCodec[V]) (*View[V], error) {
	b := payload
	if len(b) < 1 || b[0] != ckptFormat {
		return nil, fmt.Errorf("stream: unsupported checkpoint payload format")
	}
	b = b[1:]
	name, b, err := decodeStr(b)
	if err != nil {
		return nil, err
	}
	if name != ops.Name {
		return nil, fmt.Errorf("stream: checkpoint was written under algebra %q, opened with %q", name, ops.Name)
	}
	var edges, appends, epoch, autoSeq uint64
	if edges, b, err = decodeU64(b); err != nil {
		return nil, err
	}
	if appends, b, err = decodeU64(b); err != nil {
		return nil, err
	}
	if epoch, b, err = decodeU64(b); err != nil {
		return nil, err
	}
	if autoSeq, b, err = decodeU64(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("stream: truncated checkpoint flags")
	}
	exact := b[0] == 1
	b = b[1:]
	var autoBase, lastKey string
	if autoBase, b, err = decodeStr(b); err != nil {
		return nil, err
	}
	if lastKey, b, err = decodeStr(b); err != nil {
		return nil, err
	}
	srcIn, b, err := keys.InternerFromBinary(b)
	if err != nil {
		return nil, err
	}
	dstIn, b, err := keys.InternerFromBinary(b)
	if err != nil {
		return nil, err
	}
	srcPos, b, err := decodeI32s(b)
	if err != nil {
		return nil, err
	}
	dstPos, b, err := decodeI32s(b)
	if err != nil {
		return nil, err
	}
	edgeKeys, b, err := decodeStrs(b)
	if err != nil {
		return nil, err
	}
	eoutM, b, err := sparse.DecodeCSR(b, codec.Decode)
	if err != nil {
		return nil, err
	}
	einM, b, err := sparse.DecodeCSR(b, codec.Decode)
	if err != nil {
		return nil, err
	}
	mainM, b, err := sparse.DecodeCSR(b, codec.Decode)
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("stream: %d trailing bytes after checkpoint payload", len(b))
	}

	srcSet, srcByPos, err := sideFromPos(srcIn, srcPos)
	if err != nil {
		return nil, err
	}
	dstSet, dstByPos, err := sideFromPos(dstIn, dstPos)
	if err != nil {
		return nil, err
	}
	if _, err := keys.FromSorted(edgeKeys); err != nil {
		return nil, fmt.Errorf("stream: edge keys: %w", err)
	}
	if int(edges) != len(edgeKeys) {
		return nil, fmt.Errorf("stream: checkpoint counts %d edges, key set holds %d", edges, len(edgeKeys))
	}
	if len(edgeKeys) > 0 && edgeKeys[len(edgeKeys)-1] != lastKey {
		return nil, fmt.Errorf("stream: checkpoint last key %q disagrees with edge set", lastKey)
	}
	if eoutM.Rows() != len(edgeKeys) || eoutM.Cols() != srcSet.Len() {
		return nil, fmt.Errorf("stream: eout is %d×%d, want %d×%d", eoutM.Rows(), eoutM.Cols(), len(edgeKeys), srcSet.Len())
	}
	if einM.Rows() != len(edgeKeys) || einM.Cols() != dstSet.Len() {
		return nil, fmt.Errorf("stream: ein is %d×%d, want %d×%d", einM.Rows(), einM.Cols(), len(edgeKeys), dstSet.Len())
	}
	if mainM.Rows() != srcSet.Len() || mainM.Cols() != dstSet.Len() {
		return nil, fmt.Errorf("stream: adjacency is %d×%d, want %d×%d", mainM.Rows(), mainM.Cols(), srcSet.Len(), dstSet.Len())
	}
	// Back into id space: each incidence row's one column position is
	// the position of the endpoint's id.
	srcID, out, err := unitRowIDs(eoutM, srcByPos)
	if err != nil {
		return nil, err
	}
	dstID, in, err := unitRowIDs(einM, dstByPos)
	if err != nil {
		return nil, err
	}
	main, err := assoc.New(srcSet, dstSet, mainM)
	if err != nil {
		return nil, err
	}
	v := &View[V]{
		eng:      shard.Engine[V]{Ops: ops, Mul: opt.Mul},
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
		synced:   len(edgeKeys),
		main:     main,
		appends:  int(appends),
		epoch:    int(epoch),
		exact:    exact,
		autoSeq:  int(autoSeq),
		autoBase: autoBase,
	}
	return v, nil
}
