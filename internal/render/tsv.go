package render

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteOutput runs write against the file at path, or against stdout
// when path is "-", and returns the first error of the write or of
// closing the file: output that did not reach the disk is a failure.
func WriteOutput(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TripleRecord is one (row, column, value) line of a TSV triple file,
// the interchange format of the adjbuild CLI (and the textual analogue
// of a D4M/Accumulo table dump).
type TripleRecord struct {
	Row, Col, Val string
}

// WriteTriples emits records as tab-separated "row\tcol\tval" lines.
// Fields must not contain tabs, newlines, or carriage returns (CR would
// be silently altered by line-oriented readers).
func WriteTriples(w io.Writer, recs []TripleRecord) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if strings.ContainsAny(r.Row+r.Col+r.Val, "\t\n\r") {
			return fmt.Errorf("render: field contains tab, newline, or carriage return: %+v", r)
		}
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", r.Row, r.Col, r.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTriples parses tab-separated triples, skipping blank lines and
// lines starting with '#'.
func ReadTriples(r io.Reader) ([]TripleRecord, error) {
	var out []TripleRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.ContainsRune(line, '\r') {
			return nil, fmt.Errorf("render: line %d: carriage return in field (CRLF input? strip \\r first)", lineNo)
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("render: line %d: want 3 tab-separated fields, got %d", lineNo, len(parts))
		}
		out = append(out, TripleRecord{Row: parts[0], Col: parts[1], Val: parts[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
