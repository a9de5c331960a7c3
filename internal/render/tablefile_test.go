package render

import (
	"strings"
	"testing"
)

func TestReadTable(t *testing.T) {
	in := strings.NewReader(`# music sample
track	Genre	Writer
t1	Rock	Ann;Bob
t2	Pop
`)
	td, err := ReadTable(in)
	if err != nil {
		t.Fatal(err)
	}
	if td.RowHeader != "track" || len(td.Fields) != 2 || len(td.Rows) != 2 {
		t.Fatalf("table = %+v", td)
	}
	if td.Cells[0][1] != "Ann;Bob" {
		t.Errorf("multi-value cell = %q", td.Cells[0][1])
	}
	if td.Cells[1][1] != "" {
		t.Errorf("empty cell = %q", td.Cells[1][1])
	}
}

func TestReadTableErrors(t *testing.T) {
	if _, err := ReadTable(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadTable(strings.NewReader("onlykey\n")); err == nil {
		t.Error("fieldless header accepted")
	}
	if _, err := ReadTable(strings.NewReader("k\tF\nrow\ta\tb\n")); err == nil {
		t.Error("wide row accepted")
	}
}

func TestWriteReadTableRoundTrip(t *testing.T) {
	back, err := ReadTable(strings.NewReader("id\tA\tB\nr1\tx\ty;z\nr2\t\tw\n"))
	if err != nil {
		t.Fatal(err)
	}
	if back.RowHeader != "id" || len(back.Rows) != 2 || back.Cells[0][1] != "y;z" || back.Cells[1][0] != "" {
		t.Errorf("round trip = %+v", back)
	}
}
