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

// asCommand makes the test binary run as adjbuild when re-executed with
// it set, so a test can watch the command's exit code.
const asCommand = "ADJBUILD_AS_COMMAND"

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
	dir := t.TempDir()
	eout, ein := filepath.Join(dir, "eout.tsv"), filepath.Join(dir, "ein.tsv")
	for path, body := range map[string]string{eout: "e1\ta\t1\n", ein: "e1\tb\t1\n"} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(os.Args[0], "-eout", eout, "-ein", ein, "-grid", "-o", "/dev/full")
	cmd.Env = append(os.Environ(), asCommand+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("adjbuild -grid -o /dev/full: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "/dev/full") {
		t.Errorf("the message does not name the file:\n%s", stderr.String())
	}
}
