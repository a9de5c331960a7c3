package stream

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
)

// keyCol is the log's edge-key column. A key the caller gave is stored;
// a key the view generated is not — it is arrival order under a prefix,
// so a stretch of them is one keyRun, whatever its length. An all-auto
// log is a single run and holds no key bytes at all; a log of explicit
// keys is a single spelled run over a []string, the column it has always
// been.
//
// A run has no length: it ends where the next one begins, or at the log
// length its reader captured. Extending the log therefore writes nothing
// a captured column can see — a longer last run mutates no run, a new run
// and a new spelled key land past the captured lengths — which is what
// lets a logView and a checkpoint image pin the column by value.
type keyCol struct {
	runs    []keyRun
	spelled []string // the caller-given keys, in log order
}

// keyRun describes the keys of the log entries from at up to the next
// run. Generated: entry i has the key base + %012d of seq+(i-at).
// Spelled: entry i's key is spelled[seq+(i-at)].
type keyRun struct {
	at   int
	base string
	seq  int
	gen  bool
}

// autoKeyWidth is the zero-padded width of a generated key's number.
// Below autoKeyLimit every number prints at exactly this width, so
// generated keys of one base order as their numbers do.
const (
	autoKeyWidth = 12
	autoKeyLimit = 1_000_000_000_000
)

// appendAutoKey appends base and n zero-padded to twelve digits — what
// fmt's "%s%012d" prints for n ≥ 0, the form every auto-assigned key in
// a log or WAL written so far has.
func appendAutoKey(dst []byte, base string, n int) []byte {
	dst = append(dst, base...)
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(n), 10)
	for i := len(digits); i < autoKeyWidth; i++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// autoKeyLen is len(appendAutoKey(nil, base, n)).
func autoKeyLen(base string, n int) int {
	w := len(base) + autoKeyWidth
	for n >= autoKeyLimit {
		n /= 10
		w++
	}
	return w
}

// keyRef names one edge key without spelling a generated one out.
type keyRef struct {
	s    string // the key, or a generated key's base
	seq  int
	auto bool
}

// appendTo appends the key's bytes.
func (k keyRef) appendTo(dst []byte) []byte {
	if k.auto {
		return appendAutoKey(dst, k.s, k.seq)
	}
	return append(dst, k.s...)
}

func (k keyRef) String() string {
	if k.auto {
		return string(k.appendTo(nil))
	}
	return k.s
}

// less reports whether k sorts strictly before o, as the spelled-out
// keys compare. Two generated keys of one base compare by number; only
// where a generated key meets another kind is it formatted, into a
// buffer that stays on the stack for any base of ordinary length.
func (k keyRef) less(o keyRef) bool {
	switch {
	case !k.auto && !o.auto:
		return k.s < o.s
	case k.auto && o.auto && k.s == o.s && k.seq < autoKeyLimit && o.seq < autoKeyLimit:
		return k.seq < o.seq
	}
	var kb, ob [64]byte
	return bytes.Compare(k.appendTo(kb[:0]), o.appendTo(ob[:0])) < 0
}

// ref returns the key of log entry i, which must be below the log length.
func (c keyCol) ref(i int) keyRef {
	j := len(c.runs) - 1
	if c.runs[j].at > i {
		j = sort.Search(len(c.runs), func(j int) bool { return c.runs[j].at > i }) - 1
	}
	r := c.runs[j]
	if r.gen {
		return keyRef{s: r.base, seq: r.seq + i - r.at, auto: true}
	}
	return keyRef{s: c.spelled[r.seq+i-r.at]}
}

// add records the key of log entry i, the next one: a caller-given key
// is stored, a generated one extends the last run when it continues it
// and opens a new run otherwise.
func (c *keyCol) add(i int, k keyRef) {
	var last keyRun
	if len(c.runs) > 0 {
		last = c.runs[len(c.runs)-1]
	}
	if !k.auto {
		if len(c.runs) == 0 || last.gen {
			c.runs = append(c.runs, keyRun{at: i, seq: len(c.spelled)})
		}
		c.spelled = append(c.spelled, k.s)
		return
	}
	if len(c.runs) == 0 || !last.gen || last.base != k.s || last.seq+i-last.at != k.seq {
		c.runs = append(c.runs, keyRun{at: i, base: k.s, seq: k.seq, gen: true})
	}
}

// pinned returns the column as a reader may keep it: capacity-clipped,
// so that nothing grown from it can write into the live column.
func (c keyCol) pinned() keyCol {
	return keyCol{runs: slices.Clip(c.runs), spelled: slices.Clip(c.spelled)}
}

// oneRun reports whether the n-entry column is exactly the run a
// generator at (base, seq) has produced — the n keys before seq, nothing
// else — which is the column a checkpoint need not store: its meta
// section carries the generator.
func (c keyCol) oneRun(n int, base string, seq int) bool {
	return base != "" && 0 < n && n <= seq && seq <= autoKeyLimit &&
		len(c.runs) == 1 && c.runs[0] == keyRun{base: base, seq: seq - n, gen: true}
}

// each calls fn for the runs of the n-entry column in order, with the
// log index each one ends at.
func (c keyCol) each(n int, fn func(r keyRun, end int)) {
	for j, r := range c.runs {
		end := n
		if j+1 < len(c.runs) {
			end = c.runs[j+1].at
		}
		fn(r, end)
	}
}

// appendKey appends the key of log entry i, which lies in run r.
func (c keyCol) appendKey(dst []byte, r keyRun, i int) []byte {
	if r.gen {
		return appendAutoKey(dst, r.base, r.seq+i-r.at)
	}
	return append(dst, c.spelled[r.seq+i-r.at]...)
}

// keyLen is len(c.appendKey(nil, r, i)).
func (c keyCol) keyLen(r keyRun, i int) int {
	if r.gen {
		return autoKeyLen(r.base, r.seq+i-r.at)
	}
	return len(c.spelled[r.seq+i-r.at])
}

// spell returns the n keys as strings. A column of caller-given keys is
// returned as it lies; otherwise the generated keys are formatted back to
// back into one buffer, converted to a string once and sliced per key.
func (c keyCol) spell(n int) []string {
	if len(c.runs) == 1 && !c.runs[0].gen {
		return c.spelled[:n:n]
	}
	size := 0
	c.each(n, func(r keyRun, end int) {
		if r.gen {
			size += (end - r.at) * (len(r.base) + autoKeyWidth)
		}
	})
	buf := make([]byte, 0, size)
	c.each(n, func(r keyRun, end int) {
		for i := r.at; r.gen && i < end; i++ {
			buf = c.appendKey(buf, r, i)
		}
	})
	all, at := string(buf), 0
	out := make([]string, n)
	c.each(n, func(r keyRun, end int) {
		if !r.gen {
			copy(out[r.at:end], c.spelled[r.seq:])
			return
		}
		for i := r.at; i < end; i++ {
			w := c.keyLen(r, i)
			out[i], at = all[at:at+w], at+w
		}
	})
	return out
}
