package main

import (
	"io"
	"os"
	"testing"
)

// The example's output, byte for byte: the avg.* line is the sequential
// fold although a read falls between its batches. The grid pads every
// cell, the empty ones at the end of a line included.
const golden = "after batch 1: 2 edges, 2 adjacency entries\n" +
	"after batch 2: 4 edges, 3 adjacency entries\n" +
	"after batch 3: 5 edges, 4 adjacency entries\n" +
	"\n" +
	"maintained adjacency (+.*):\n" +
	"      alice bob carol\n" +
	"alice         2     1\n" +
	"bob                 1\n" +
	"carol     1          \n" +
	"incremental == one-shot Correlate: true\n" +
	"\n" +
	"non-associative avg.*: incremental 3.50, sequential fold ((1⊕3)⊕5) = 3.50\n"

func TestOutput(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	main()
	w.Close()
	os.Stdout = stdout
	if got := string(<-read); got != golden {
		t.Errorf("output:\n%s\nwant:\n%s", got, golden)
	}
}
