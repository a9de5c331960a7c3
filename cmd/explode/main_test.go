package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asCommand makes the test binary run as explode when re-executed with
// it set, so a test can watch the command's exit code.
const asCommand = "EXPLODE_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A grid that cannot be written is a failure: exit 1, naming the file.
func TestGridWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	table := filepath.Join(t.TempDir(), "table.tsv")
	if err := os.WriteFile(table, []byte("id\tGenre\nt1\tRock\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-in", table, "-grid", "-o", "/dev/full")
	cmd.Env = append(os.Environ(), asCommand+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("explode -grid -o /dev/full: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "/dev/full") {
		t.Errorf("the message does not name the file:\n%s", stderr.String())
	}
}
