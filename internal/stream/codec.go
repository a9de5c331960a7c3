package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

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

// appendF64 writes a value as every durable byte holds one: the 8-byte
// little-endian IEEE-754 word.
func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

// decodeF64 reads the word appendF64 wrote.
func decodeF64(b []byte) (float64, []byte, error) {
	u, rest, err := decodeU64(b)
	return math.Float64frombits(u), rest, err
}

// --- WAL batch records -------------------------------------------------

// Edge flag bits in the WAL batch encoding.
const (
	edgeHasOut = 1 << 0
	edgeHasIn  = 1 << 1
)

// appendBatch encodes one edge batch of a float64 store — the only kind
// with a log — as a WAL record payload. Edges are stored verbatim —
// including empty auto-assign keys, which replay re-derives identically
// because autoSeq/autoBase are checkpointed, and an absent weight as a
// flag bit, not as One. The view's log in memory and the checkpoint's
// log sections hold generated keys and unit weights the same way: not
// at all.
func appendBatch[V any](dst []byte, batch []Edge[V]) []byte {
	edges := any(batch).([]Edge[float64])
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
			dst = appendF64(dst, e.Out)
		}
		if e.HasIn {
			dst = appendF64(dst, e.In)
		}
	}
	return dst
}

// decodeBatch decodes a WAL record payload back into an edge batch, in
// into's storage when that is large enough: a replay decodes every record
// into one slice. The endpoint names are substrings of one copy of the
// record — they live until the batch is interned — and only a given edge
// key, which the log keeps, is a string of its own.
func decodeBatch(b []byte, into []Edge[float64]) ([]Edge[float64], error) {
	n, w := binary.Uvarint(b)
	// An edge is at least its flag byte and three string lengths, which
	// bounds the count — and the allocation — by the record's length.
	if w <= 0 || n > uint64(len(b)-w)/4 {
		return nil, fmt.Errorf("stream: truncated batch header")
	}
	record := string(b)
	b = b[w:]
	// str reads a length-prefixed string at the front of b as a substring
	// of record.
	str := func() (string, error) {
		size, w := binary.Uvarint(b)
		if w <= 0 || size > uint64(len(b)-w) {
			return "", fmt.Errorf("stream: truncated string")
		}
		at := len(record) - len(b) + w
		b = b[w+int(size):]
		return record[at : at+int(size)], nil
	}
	edges := into[:0]
	if uint64(cap(edges)) < n {
		edges = make([]Edge[float64], 0, n)
	}
	edges = edges[:n]
	clear(edges)
	var err error
	for i := range edges {
		if len(b) < 1 {
			return nil, fmt.Errorf("stream: truncated edge %d", i)
		}
		flags := b[0]
		b = b[1:]
		e := &edges[i]
		if e.Key, err = str(); err != nil {
			return nil, err
		}
		e.Key = strings.Clone(e.Key)
		if e.Src, err = str(); err != nil {
			return nil, err
		}
		if e.Dst, err = str(); err != nil {
			return nil, err
		}
		if flags&edgeHasOut != 0 {
			if e.Out, b, err = decodeF64(b); err != nil {
				return nil, err
			}
			e.HasOut = true
		}
		if flags&edgeHasIn != 0 {
			if e.In, b, err = decodeF64(b); err != nil {
				return nil, err
			}
			e.HasIn = true
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("stream: %d trailing bytes after batch", len(b))
	}
	return edges, nil
}
