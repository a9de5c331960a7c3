// Package dataset supplies the workloads of the paper's evaluation: the
// Figure-1 music-metadata table (reconstructed — see below), the
// Section III document/word corpus for set-valued arrays, and synthetic
// graph generators (Erdős–Rényi, R-MAT, bipartite, multi-edge streams)
// for the theorem and scaling experiments.
//
// Music data provenance: the paper shows a rasterized D4M view of 22
// tracks by the band Kitten. The sub-arrays that drive every computed
// number — E1 (Genre columns, Figures 2 and 4) and E2 (Writer columns,
// Figure 2) — are exactly recoverable from the printed figures plus the
// arithmetic of Figures 3 and 5, and are reproduced here bit-for-bit.
// The remaining fields (Artist/Date/Label/Release/Type) are constrained
// but not fully determined by the paper; this reconstruction uses every
// one of Figure 1's 31 columns and matches every row's printed nonzero
// count. Deviations, if any, affect only the Figure-1 display, never
// the computed adjacency arrays.
package dataset

import (
	"sort"

	"adjarray/internal/assoc"
)

// Music column-key constants (exploded "field|value" keys of Figure 1).
const (
	GenreElectronic = "Genre|Electronic"
	GenrePop        = "Genre|Pop"
	GenreRock       = "Genre|Rock"

	WriterBarrett  = "Writer|Barrett Rich"
	WriterChad     = "Writer|Chad Anderson"
	WriterChloe    = "Writer|Chloe Chaidez"
	WriterJulian   = "Writer|Julian Chaidez"
	WriterNicholas = "Writer|Nicholas Johns"
)

// musicRow is one track record of the dense source table.
type musicRow struct {
	key     string
	artist  string
	date    string
	genre   string
	label   string
	release string
	typ     string
	writers string
}

// musicRows is the 22-track reconstruction. Multi-valued cells use ";".
var musicRows = []musicRow{
	{"031013ktnA1", "Kitten", "2013-10-03", "Rock", "Atlantic;Elektra Records", "Japanese Eyes", "Single",
		"Chad Anderson;Chloe Chaidez;Nicholas Johns"},

	{"053013ktnA1", "Kastle;Kitten", "2013-05-30", "Electronic", "Elektra Records", "Like A Stranger", "EP",
		"Barrett Rich;Julian Chaidez"},
	{"053013ktnA2", "Bandayde", "2013-05-30", "Electronic", "Elektra Records", "Like A Stranger", "EP",
		"Julian Chaidez"},

	{"063012ktnA1", "Kitten", "2010-06-30", "Rock", "The Control Group", "Cut It Out", "EP",
		"Chad Anderson;Chloe Chaidez"},
	{"063012ktnA2", "Kitten", "2010-06-30", "Rock", "The Control Group", "Cut It Out", "EP",
		"Chad Anderson;Chloe Chaidez"},
	{"063012ktnA3", "Kitten", "2010-06-30", "Rock", "The Control Group", "Cut It Out", "EP",
		"Chad Anderson;Chloe Chaidez"},
	{"063012ktnA4", "Kitten", "2010-06-30", "Rock", "The Control Group", "Cut It Out", "EP",
		"Chad Anderson;Chloe Chaidez"},
	{"063012ktnA5", "Kitten", "2010-06-30", "Rock", "The Control Group", "Cut It Out", "EP",
		"Chad Anderson;Chloe Chaidez"},

	{"082812ktnA1", "Kitten", "2012-08-28", "Pop", "Atlantic", "Kill The Light", "LP",
		"Chad Anderson;Chloe Chaidez;Nicholas Johns"},
	{"082812ktnA2", "Kitten", "2012-08-28", "Pop", "Atlantic", "Kill The Light", "LP",
		"Chad Anderson;Chloe Chaidez"},
	{"082812ktnA3", "Kitten", "2012-08-28", "Pop", "Atlantic", "Kill The Light", "LP",
		"Chad Anderson;Chloe Chaidez"},
	{"082812ktnA4", "Kitten", "2012-08-28", "Pop", "Atlantic", "Yesterday", "LP",
		"Chad Anderson;Chloe Chaidez"},
	{"082812ktnA5", "Kitten", "2012-08-28", "Pop", "Atlantic", "Yesterday", "LP",
		"Chad Anderson;Chloe Chaidez;Nicholas Johns"},
	{"082812ktnA6", "Kitten", "2012-08-28", "Pop", "Atlantic", "Yesterday", "LP",
		"Chad Anderson;Chloe Chaidez"},

	{"093012ktnA1", "Kitten", "2013-09-30", "Electronic;Pop", "Free", "Cut It Out Remixes", "Single",
		"Chad Anderson;Chloe Chaidez"},
	{"093012ktnA2", "Kitten", "2013-09-30", "Electronic;Pop", "Free", "Cut It Out Remixes", "Single",
		"Chad Anderson;Chloe Chaidez"},
	{"093012ktnA3", "Kitten", "2013-09-30", "Electronic;Pop", "Free", "Cut It Out Remixes", "Single",
		"Chad Anderson;Chloe Chaidez;Nicholas Johns"},
	{"093012ktnA4", "Kitten", "2013-09-30", "Electronic;Pop", "Free", "Cut It Out Remixes", "Single",
		"Chad Anderson;Chloe Chaidez"},
	{"093012ktnA5", "Kitten", "2012-09-16", "Electronic;Pop", "Free", "Cut It Out/Sugar", "Single",
		"Chad Anderson;Chloe Chaidez"},
	{"093012ktnA6", "Kitten", "2012-09-16", "Electronic;Pop", "Free", "Cut It Out/Sugar", "Single",
		"Chad Anderson;Chloe Chaidez"},
	{"093012ktnA7", "Kitten", "2012-09-16", "Electronic;Pop", "Free", "Cut It Out/Sugar", "Single",
		"Chad Anderson;Chloe Chaidez"},
	{"093012ktnA8", "Kitten", "2012-09-16", "Electronic;Pop", "", "Cut It Out/Sugar", "Single",
		""},
}

// MusicTable returns the dense 22-track × 7-field source table that
// Figure 1 explodes.
func MusicTable() assoc.Table {
	t := assoc.Table{
		Fields: []string{"Artist", "Date", "Genre", "Label", "Release", "Type", "Writer"},
	}
	for _, r := range musicRows {
		t.Rows = append(t.Rows, r.key)
		t.Cells = append(t.Cells, []string{
			r.artist, r.date, r.genre, r.label, r.release, r.typ, r.writers,
		})
	}
	return t
}

// MusicIncidence returns E, the exploded sparse incidence view of
// Figure 1: 22 track rows × 31 "field|value" columns, every entry 1.
func MusicIncidence() *assoc.Array[float64] {
	e, err := assoc.Explode(MusicTable(), assoc.ExplodeOptions{})
	if err != nil {
		panic("dataset: music table invalid: " + err.Error()) // static data
	}
	return e
}

// MusicE1E2 returns the Figure-2 sub-arrays: E1 = E(:, 'Genre|*') and
// E2 = E(:, 'Writer|*').
func MusicE1E2() (e1, e2 *assoc.Array[float64]) {
	e := MusicIncidence()
	e1, err := e.SubRefExpr(":", "Genre|A : Genre|Z")
	if err != nil {
		panic(err)
	}
	e2, err = e.SubRefExpr(":", "Writer|A : Writer|Z")
	if err != nil {
		panic(err)
	}
	return e1, e2
}

// MusicE1Weighted returns Figure 4's re-weighted E1: non-zero values 1
// in Genre|Electronic, 2 in Genre|Pop, and 3 in Genre|Rock.
func MusicE1Weighted() *assoc.Array[float64] {
	e1, _ := MusicE1E2()
	return e1.Map(func(row, col string, v float64) float64 {
		switch col {
		case GenrePop:
			return 2
		case GenreRock:
			return 3
		default:
			return 1
		}
	})
}

// figureRow builds the triples of one expected adjacency row, in
// sorted writer order so the fixture bytes are identical across runs.
func figureRow(genre string, vals map[string]float64) []assoc.Triple[float64] {
	writers := make([]string, 0, len(vals))
	for writer := range vals {
		writers = append(writers, writer)
	}
	sort.Strings(writers)
	ts := make([]assoc.Triple[float64], 0, len(writers))
	for _, writer := range writers {
		ts = append(ts, assoc.Triple[float64]{Row: genre, Col: writer, Val: vals[writer]})
	}
	return ts
}

// uniformFigure builds the expected array with one constant value per
// genre row over the common pattern (Electronic connects to all five
// writers; Pop and Rock connect to Chad, Chloe and Nicholas).
func uniformFigure(elec, pop, rock float64) *assoc.Array[float64] {
	var ts []assoc.Triple[float64]
	ts = append(ts, figureRow(GenreElectronic, map[string]float64{
		WriterBarrett: elec, WriterChad: elec, WriterChloe: elec, WriterJulian: elec, WriterNicholas: elec,
	})...)
	ts = append(ts, figureRow(GenrePop, map[string]float64{
		WriterChad: pop, WriterChloe: pop, WriterNicholas: pop,
	})...)
	ts = append(ts, figureRow(GenreRock, map[string]float64{
		WriterChad: rock, WriterChloe: rock, WriterNicholas: rock,
	})...)
	return assoc.FromTriples(ts, nil)
}

// plusTimesFigure3 is the +.* panel shared by Figures 3 and 5's
// Electronic row: the edge-count correlation.
func plusTimesExpected(popScale, rockScale float64) *assoc.Array[float64] {
	var ts []assoc.Triple[float64]
	ts = append(ts, figureRow(GenreElectronic, map[string]float64{
		WriterBarrett: 1, WriterChad: 7, WriterChloe: 7, WriterJulian: 2, WriterNicholas: 1,
	})...)
	ts = append(ts, figureRow(GenrePop, map[string]float64{
		WriterChad: 13 * popScale, WriterChloe: 13 * popScale, WriterNicholas: 3 * popScale,
	})...)
	ts = append(ts, figureRow(GenreRock, map[string]float64{
		WriterChad: 6 * rockScale, WriterChloe: 6 * rockScale, WriterNicholas: 1 * rockScale,
	})...)
	return assoc.FromTriples(ts, nil)
}

// Figure3Expected returns the paper's Figure 3 adjacency arrays, keyed
// by operator-pair name: E1ᵀ ⊕.⊗ E2 with all incidence values 1.
func Figure3Expected() map[string]*assoc.Array[float64] {
	return map[string]*assoc.Array[float64]{
		"+.*":     plusTimesExpected(1, 1),
		"max.*":   uniformFigure(1, 1, 1),
		"min.*":   uniformFigure(1, 1, 1),
		"max.+":   uniformFigure(2, 2, 2),
		"min.+":   uniformFigure(2, 2, 2),
		"max.min": uniformFigure(1, 1, 1),
		"min.max": uniformFigure(1, 1, 1),
	}
}

// Figure5Expected returns the paper's Figure 5 adjacency arrays, keyed
// by operator-pair name: E1ᵀ ⊕.⊗ E2 with E1 re-weighted per Figure 4.
func Figure5Expected() map[string]*assoc.Array[float64] {
	return map[string]*assoc.Array[float64]{
		"+.*":     plusTimesExpected(2, 3),
		"max.*":   uniformFigure(1, 2, 3),
		"min.*":   uniformFigure(1, 2, 3),
		"max.+":   uniformFigure(2, 3, 4),
		"min.+":   uniformFigure(2, 3, 4),
		"max.min": uniformFigure(1, 1, 1),
		"min.max": uniformFigure(1, 2, 3),
	}
}

// Figure1RowDegrees returns the per-track nonzero counts visible in the
// paper's Figure 1 raster, used to validate the reconstruction.
func Figure1RowDegrees() map[string]int {
	return map[string]int{
		"031013ktnA1": 10,
		"053013ktnA1": 9, "053013ktnA2": 7,
		"063012ktnA1": 8, "063012ktnA2": 8, "063012ktnA3": 8, "063012ktnA4": 8, "063012ktnA5": 8,
		"082812ktnA1": 9, "082812ktnA2": 8, "082812ktnA3": 8, "082812ktnA4": 8, "082812ktnA5": 9, "082812ktnA6": 8,
		"093012ktnA1": 9, "093012ktnA2": 9, "093012ktnA3": 10, "093012ktnA4": 9,
		"093012ktnA5": 9, "093012ktnA6": 9, "093012ktnA7": 9, "093012ktnA8": 6,
	}
}
