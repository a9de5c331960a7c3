package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"adjarray/internal/semiring"
)

// asCommand makes the test binary run as semiringlab when re-executed
// with it set, so a test can watch the command's output and exit code.
const asCommand = "SEMIRINGLAB_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// semiringlab runs the command with args and returns its stdout, its
// stderr and its exit code.
func semiringlab(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asCommand+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

// Each mode's stdout, byte for byte, is its golden file: the Section III
// table, one pair's report, the gadget of every built-in pair that fails
// a condition, and the report and gadget of GF(2), which is not
// zero-sum-free.
func TestOutput(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"table.golden", nil},
		{"pair.golden", []string{"-pair", "max.+"}},
		{"gadgets.golden", []string{"-gadgets"}},
		{"custom.golden", []string{"-custom", "testdata/gf2.json"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := semiringlab(t, c.args...)
			if code != 0 || stdout != string(want) {
				t.Errorf("semiringlab %s: exit %d, stderr %q, output:\n%s\nwant:\n%s",
					strings.Join(c.args, " "), code, stderr, stdout, want)
			}
		})
	}
}

// An unknown pair is a usage error: exit 2, naming the pairs there are.
func TestUnknownPairExitsTwo(t *testing.T) {
	_, stderr, code := semiringlab(t, "-pair", "nope")
	if code != 2 || !strings.Contains(stderr, fmt.Sprintf("known pairs: %v", semiring.Names())) {
		t.Errorf("semiringlab -pair nope: exit %d, stderr %q; want exit 2 naming the known pairs", code, stderr)
	}
}
