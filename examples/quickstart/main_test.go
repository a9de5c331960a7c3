package main

import (
	"io"
	"os"
	"testing"
)

// The example's output, byte for byte, is testdata/stdout.golden.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
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
	if got := string(<-read); got != string(want) {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}
