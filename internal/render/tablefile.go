package render

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Dense-table TSV input: the spreadsheet shape that Figure 1 starts from.
// Format: first line is "<rowKeyHeader>\tField1\tField2...", following
// lines are "rowKey\tcell1\tcell2...". Empty cells mean absent; cells
// may hold multiple ';'-separated values. Lines starting with '#' and
// blank lines are skipped.

// TableData is the I/O-level mirror of assoc.Table (kept separate so
// render does not import assoc).
type TableData struct {
	RowHeader string
	Fields    []string
	Rows      []string
	Cells     [][]string
}

// ReadTable parses a dense TSV table.
func ReadTable(r io.Reader) (TableData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var t TableData
	headerSeen := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if !headerSeen {
			if len(parts) < 2 {
				return t, fmt.Errorf("render: line %d: header needs a row-key column and at least one field", lineNo)
			}
			t.RowHeader = parts[0]
			t.Fields = parts[1:]
			headerSeen = true
			continue
		}
		if len(parts) > len(t.Fields)+1 {
			return t, fmt.Errorf("render: line %d: %d cells, want at most %d", lineNo, len(parts)-1, len(t.Fields))
		}
		// Trailing empty cells may be omitted (editors often strip the
		// trailing tabs); pad them back.
		for len(parts) < len(t.Fields)+1 {
			parts = append(parts, "")
		}
		t.Rows = append(t.Rows, parts[0])
		t.Cells = append(t.Cells, parts[1:])
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if !headerSeen {
		return t, fmt.Errorf("render: empty table")
	}
	return t, nil
}
