package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark's driver computes spreads with.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// bounds a metric may be given, smallest first. A metric whose spread
// is not under a third of the largest cannot be gated with a margin on
// this machine.
var boundSteps = []float64{0.05, 0.10, 0.15, 0.20, 0.25}

func proposeBound(spread float64) string {
	for _, b := range boundSteps {
		if spread < b/3 {
			return fmt.Sprintf("%.2f", b)
		}
	}
	if spread < boundSteps[len(boundSteps)-1] {
		return "0.25, no margin"
	}
	return "too wide to gate"
}

// freshRun runs one workload once in a process of its own — new child,
// new temp directories, new heap — and reads every number it printed.
func freshRun(workload string, seed int64, seconds int) (values, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var result struct {
		Attempted, Failed int
	}
	if err := json.Unmarshal(lines[len(lines)-1], &result); err != nil {
		return nil, fmt.Errorf("%s, seed %d: no result line (%v): %w", workload, seed, runErr, err)
	}
	known := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			known[d.Name] = true
		}
	}
	got := values{"failed": float64(result.Failed)}
	for _, line := range lines {
		f := strings.Fields(string(line))
		if len(f) >= 2 && known[f[0]] {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				got[f[0]] = v
			}
		}
	}
	return got, nil
}

// calibrate makes n fresh runs of every selected workload, with a new
// seed each as the driver does, and prints, as Markdown, how far each
// number repeats and the bound that follows for the gated ones.
func calibrate(cfg config, workloads []string) int {
	code := 0
	fmt.Printf("\n# Calibration: %d fresh runs per workload, seeds %d..%d, -seconds %d\n", cfg.calibrate, cfg.seed, cfg.seed+int64(cfg.calibrate)-1, cfg.seconds)
	for _, w := range workloads {
		var runs []values
		for i := 0; i < cfg.calibrate; i++ {
			got, err := freshRun(w, cfg.seed+int64(i), cfg.seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if got["failed"] > 0 {
				code = 1
				fmt.Printf("\nFAILED: %s, seed %d: %.0f ops\n", w, cfg.seed+int64(i), got["failed"])
			}
			runs = append(runs, got)
		}
		series := func(name string) []float64 {
			xs := make([]float64, len(runs))
			for i, r := range runs {
				xs[i] = r[name]
			}
			return xs
		}
		spins := series("bench.spin_ms")
		calm := sortedCopy(spins)[0]
		fmt.Printf("\n## %s\n\n`bench.spin_ms` per run:", w)
		for _, s := range spins {
			fmt.Printf(" %.1f", s)
			if s > 1.10*calm {
				fmt.Print(" (disturbed)")
			}
		}
		fmt.Printf("\n\n| metric | unit | min | median | max | IQR/median | bound |\n|---|---|---|---|---|---|---|\n")
		row := func(d metricDef, gated bool) {
			xs := series(d.Name)
			s := sortedCopy(xs)
			if s[len(s)-1] == 0 {
				return
			}
			sp := spread(xs)
			verdict := "—"
			if gated {
				verdict = proposeBound(sp)
			}
			fmt.Printf("| `%s` | %s | %.4g | %.4g | %.4g | %.1f%% | %s |\n", d.Name, d.Unit, s[0], median(xs), s[len(s)-1], 100*sp, verdict)
		}
		for _, d := range endToEnd {
			row(d, true)
		}
		for _, d := range perLayer {
			row(d, false)
		}
		fmt.Printf("\nEvery run, in order:\n\n")
		for _, d := range endToEnd {
			fmt.Printf("- `%s`:", d.Name)
			for _, x := range series(d.Name) {
				fmt.Printf(" %.4g", x)
			}
			fmt.Println()
		}
	}
	return code
}
