package dataset

import (
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func eqF(a, b float64) bool { return value.Float64Equal(a, b) }

// Figure1Columns returns the 31 exploded column keys of Figure 1 in
// sorted order.
func Figure1Columns() []string {
	return []string{
		"Artist|Bandayde", "Artist|Kastle", "Artist|Kitten",
		"Date|2010-06-30", "Date|2012-08-28", "Date|2012-09-16",
		"Date|2013-05-30", "Date|2013-09-30", "Date|2013-10-03",
		GenreElectronic, GenrePop, GenreRock,
		"Label|Atlantic", "Label|Elektra Records", "Label|Free", "Label|The Control Group",
		"Release|Cut It Out", "Release|Cut It Out Remixes", "Release|Cut It Out/Sugar",
		"Release|Japanese Eyes", "Release|Kill The Light", "Release|Like A Stranger", "Release|Yesterday",
		"Type|EP", "Type|LP", "Type|Single",
		WriterBarrett, WriterChad, WriterChloe, WriterJulian, WriterNicholas,
	}
}

func TestMusicTableShape(t *testing.T) {
	tab := MusicTable()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 22 {
		t.Fatalf("track count = %d, want 22", len(tab.Rows))
	}
	if len(tab.Fields) != 7 {
		t.Fatalf("field count = %d, want 7", len(tab.Fields))
	}
}

func TestMusicIncidenceMatchesFigure1Structure(t *testing.T) {
	e := MusicIncidence()
	if e.RowKeys().Len() != 22 {
		t.Errorf("rows = %d, want 22", e.RowKeys().Len())
	}
	// Exactly the 31 columns of Figure 1.
	want := Figure1Columns()
	if e.ColKeys().Len() != len(want) {
		t.Fatalf("cols = %d, want %d: %v", e.ColKeys().Len(), len(want), e.ColKeys().Keys())
	}
	for i, k := range want {
		if e.ColKeys().Key(i) != k {
			t.Errorf("column %d = %q, want %q", i, e.ColKeys().Key(i), k)
		}
	}
	// Every value is 1 ("the new value is usually 1").
	e.Iterate(func(r, c string, v float64) {
		if v != 1 {
			t.Errorf("E(%s,%s) = %v, want 1", r, c, v)
		}
	})
	// Row degrees match the Figure 1 raster exactly.
	deg := e.RowDegrees()
	for row, want := range Figure1RowDegrees() {
		if deg[row] != want {
			t.Errorf("row %s degree = %d, want %d", row, deg[row], want)
		}
	}
}

func TestMusicE1MatchesFigure2(t *testing.T) {
	e1, _ := MusicE1E2()
	if e1.ColKeys().Len() != 3 {
		t.Fatalf("E1 cols = %v", e1.ColKeys().Keys())
	}
	// Genre assignments recovered from Figures 2 and 4.
	wantGenres := map[string][]string{
		"031013ktnA1": {GenreRock},
		"053013ktnA1": {GenreElectronic},
		"053013ktnA2": {GenreElectronic},
	}
	for i := 1; i <= 5; i++ {
		wantGenres["063012ktnA"+string(rune('0'+i))] = []string{GenreRock}
	}
	for i := 1; i <= 6; i++ {
		wantGenres["082812ktnA"+string(rune('0'+i))] = []string{GenrePop}
	}
	for i := 1; i <= 8; i++ {
		wantGenres["093012ktnA"+string(rune('0'+i))] = []string{GenreElectronic, GenrePop}
	}
	for row, genres := range wantGenres {
		for _, gcol := range genres {
			if v, ok := e1.At(row, gcol); !ok || v != 1 {
				t.Errorf("E1(%s,%s) = %v,%v; want 1", row, gcol, v, ok)
			}
		}
		if deg := e1.RowDegrees()[row]; deg != len(genres) {
			t.Errorf("E1 row %s degree = %d, want %d", row, deg, len(genres))
		}
	}
}

func TestMusicE2MatchesFigure2(t *testing.T) {
	_, e2 := MusicE1E2()
	if e2.ColKeys().Len() != 5 {
		t.Fatalf("E2 cols = %v", e2.ColKeys().Keys())
	}
	wantDegrees := map[string]int{
		"031013ktnA1": 3,
		"053013ktnA1": 2, "053013ktnA2": 1,
		"063012ktnA1": 2, "063012ktnA2": 2, "063012ktnA3": 2, "063012ktnA4": 2, "063012ktnA5": 2,
		"082812ktnA1": 3, "082812ktnA2": 2, "082812ktnA3": 2, "082812ktnA4": 2, "082812ktnA5": 3, "082812ktnA6": 2,
		"093012ktnA1": 2, "093012ktnA2": 2, "093012ktnA3": 3, "093012ktnA4": 2,
		"093012ktnA5": 2, "093012ktnA6": 2, "093012ktnA7": 2, "093012ktnA8": 0,
	}
	deg := e2.RowDegrees()
	for row, want := range wantDegrees {
		if deg[row] != want {
			t.Errorf("E2 row %s degree = %d, want %d", row, deg[row], want)
		}
	}
	// Spot checks from the figure.
	if _, ok := e2.At("053013ktnA1", WriterBarrett); !ok {
		t.Error("Barrett Rich should write 053013ktnA1")
	}
	if _, ok := e2.At("053013ktnA2", WriterJulian); !ok {
		t.Error("Julian Chaidez should write 053013ktnA2")
	}
	if _, ok := e2.At("093012ktnA3", WriterNicholas); !ok {
		t.Error("Nicholas Johns should write 093012ktnA3")
	}
}

func TestMusicE1WeightedMatchesFigure4(t *testing.T) {
	w := MusicE1Weighted()
	e1, _ := MusicE1E2()
	if !assoc.SamePattern(w, e1) {
		t.Fatal("Figure 4 re-weighting must not change the pattern")
	}
	w.Iterate(func(row, col string, v float64) {
		want := map[string]float64{GenreElectronic: 1, GenrePop: 2, GenreRock: 3}[col]
		if v != want {
			t.Errorf("weighted E1(%s,%s) = %v, want %v", row, col, v, want)
		}
	})
}

// The headline reproduction: E1ᵀ ⊕.⊗ E2 equals the paper's Figure 3
// arrays for all seven operator pairs.
func TestFigure3Reproduction(t *testing.T) {
	e1, e2 := MusicE1E2()
	expected := Figure3Expected()
	for _, ops := range semiring.Figure3Pairs() {
		got, err := assoc.Correlate(e1, e2, ops, assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := expected[ops.Name]
		if !got.Equal(want, eqF) {
			t.Errorf("%s: Figure 3 mismatch\ngot:\n%s\nwant:\n%s", ops.Name,
				assoc.Format(got, value.FormatFloat), assoc.Format(want, value.FormatFloat))
		}
	}
}

// And Figure 5: same correlation with the Figure-4 re-weighted E1.
func TestFigure5Reproduction(t *testing.T) {
	e1 := MusicE1Weighted()
	_, e2 := MusicE1E2()
	expected := Figure5Expected()
	for _, ops := range semiring.Figure3Pairs() {
		got, err := assoc.Correlate(e1, e2, ops, assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := expected[ops.Name]
		if !got.Equal(want, eqF) {
			t.Errorf("%s: Figure 5 mismatch\ngot:\n%s\nwant:\n%s", ops.Name,
				assoc.Format(got, value.FormatFloat), assoc.Format(want, value.FormatFloat))
		}
	}
}

// The paper: "the pattern of edges … is generally preserved for various
// semirings" — all seven Figure 3 products share one pattern.
func TestFigure3PatternInvariance(t *testing.T) {
	e1, e2 := MusicE1E2()
	var first *assoc.Array[float64]
	for _, ops := range semiring.Figure3Pairs() {
		got, err := assoc.Correlate(e1, e2, ops, assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		if !assoc.SamePattern(first, got) {
			t.Errorf("%s changed the edge pattern", ops.Name)
		}
	}
}
