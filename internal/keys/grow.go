package keys

// Growth entry points for delta-batch merges.
//
// The batch constructors (New, FromSorted) re-sort or re-validate the
// whole key slice; a maintained adjacency view merges small key batches
// thousands of times, so these paths grow an existing Set without
// re-sorting the keys already present.

// UnionOffsets returns u = s ∪ t together with position maps into u:
// sPos[i] is the index in u of s.Key(i), tPos[j] the index in u of
// t.Key(j). A nil position map means the identity (that side's keys
// occupy the same indices in u) — the common steady-state case where a
// delta batch introduces no new keys, which costs only the subset check.
//
// The maps are strictly increasing, which is exactly what sparse.Embed
// needs to remap CSR coordinates without re-sorting rows.
func (s *Set) UnionOffsets(t *Set) (u *Set, sPos, tPos []int) {
	if t.Len() == 0 || s.Equal(t) {
		return s, nil, nil
	}
	if s.Len() == 0 {
		return t, nil, nil
	}
	// Subset fast paths: when one side's keys form a prefix-aligned
	// subset the union is the other side verbatim.
	if sub, pos := subsetPositions(t, s); sub {
		if identity(pos) {
			pos = nil
		}
		return s, nil, pos
	}
	if sub, pos := subsetPositions(s, t); sub {
		if identity(pos) {
			pos = nil
		}
		return t, pos, nil
	}
	out := make([]string, 0, len(s.keys)+len(t.keys))
	sPos = make([]int, len(s.keys))
	tPos = make([]int, len(t.keys))
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			sPos[i] = len(out)
			out = append(out, s.keys[i])
			i++
		case s.keys[i] > t.keys[j]:
			tPos[j] = len(out)
			out = append(out, t.keys[j])
			j++
		default:
			sPos[i] = len(out)
			tPos[j] = len(out)
			out = append(out, s.keys[i])
			i++
			j++
		}
	}
	for ; i < len(s.keys); i++ {
		sPos[i] = len(out)
		out = append(out, s.keys[i])
	}
	for ; j < len(t.keys); j++ {
		tPos[j] = len(out)
		out = append(out, t.keys[j])
	}
	if identity(sPos) {
		sPos = nil
	}
	return fromSortedUnique(out), sPos, tPos
}

// PositionsIn returns, for each key of s, its index in super — or
// ok=false if any key of s is absent. Positions are strictly increasing;
// nil positions with ok=true mean the identity (s equals super).
//
// Unlike UnionOffsets' merge sweep, this resolves through super's cached
// reverse index: O(len(s)) map hits after the first call on super. It is
// the steady-state path for delta batches resolving against a large,
// long-lived key set (the incidence log's vertex columns, a maintained
// adjacency's key space), where the super set object survives thousands
// of batches and the walk over its full length would dominate.
func (s *Set) PositionsIn(super *Set) ([]int, bool) {
	if s.Equal(super) {
		return nil, true
	}
	if s.Len() > super.Len() {
		return nil, false
	}
	pos := make([]int, len(s.keys))
	for i, k := range s.keys {
		j, ok := super.Index(k)
		if !ok {
			return nil, false
		}
		pos[i] = j
	}
	if identity(pos) {
		pos = nil
	}
	return pos, true
}

// subsetPositions reports whether every key of sub is present in super,
// and if so where: pos[i] is the index in super of sub.Key(i).
func subsetPositions(sub, super *Set) (bool, []int) {
	if sub.Len() > super.Len() {
		return false, nil
	}
	pos := make([]int, len(sub.keys))
	j := 0
	for i, k := range sub.keys {
		for j < len(super.keys) && super.keys[j] < k {
			j++
		}
		if j >= len(super.keys) || super.keys[j] != k {
			return false, nil
		}
		pos[i] = j
		j++
	}
	return true, pos
}

func identity(pos []int) bool {
	for i, p := range pos {
		if p != i {
			return false
		}
	}
	return true
}
