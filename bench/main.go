// Command bench is the repository's benchmark: one command that
// measures the two paths a user of adjserve sees (an edge from POST
// /ingest to visible, a query from socket to socket) and the paper's
// product A = Eoutᵀ ⊕.⊗ Ein itself, end to end and layer by layer.
//
//	go run ./bench -seed 1              all four workloads, measured
//	go run ./bench -seed 1 -trace 1     the same, then the traced replay
//	go run ./bench -calibrate 5         five fresh runs, spreads, proposed bounds
//	bash bench/run.sh --workload query_static --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object per workload:
// the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. The process exits non-zero when any operation failed or any
// answer disagreed with the benchmark's own model. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 10

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	calibrate int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "one of construct, ingest_durable, query_static, mixed_rw; empty runs all four")
	flag.Int64Var(&cfg.seed, "seed", 1, "the only source of randomness: same seed, same scripts")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "length of the timed script at seed speed; scales the op counts, not the graphs")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds the traced replay and reports the per-layer metrics")
	flag.IntVar(&cfg.calibrate, "calibrate", 0, "run every workload this many times afresh and report spreads and proposed bounds")
	flag.Parse()
	os.Exit(run(cfg))
}

func run(cfg config) int {
	if flag.NArg() > 0 || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -workload NAME -seed N -seconds S>=1 -trace 0|1")
		return 2
	}
	workloads := workloadNames
	if cfg.workload != "" {
		if !slices.Contains(workloadNames, cfg.workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames)
			return 2
		}
		workloads = []string{cfg.workload}
	}
	if cfg.calibrate > 0 {
		printHeader(".", cfg)
		return calibrate(cfg, workloads)
	}
	ws, err := newWorkspace("")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer ws.cleanup()
	// SIGINT and SIGTERM take the same way out as a finished run: kill
	// the children, remove the scratch directory.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		ws.cleanup()
		os.Exit(130)
	}()

	printHeader(ws.root, cfg)
	buildTook, err := ws.buildAdjserve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("# go build ./cmd/adjserve: %.1f s\n", buildTook.Seconds())
	sz := fullSizes().forSeconds(cfg.seconds)
	code := 0
	for _, w := range workloads {
		o, err := measure(ws, w, cfg.seed, sz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		o.Values["bench.build_s"] = buildTook.Seconds()
		printMeasured(o)
		if cfg.trace == 1 {
			if err := traced(ws, o, cfg.seed, sz.traced(), spanFile(ws, w, cfg.seed)); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				return 1
			}
			printLayers(o)
		}
		if o.Failed > 0 {
			code = 1
		}
		// The contract's result line; with one workload it is the last
		// line of standard output.
		fmt.Println(resultLine(o, cfg.trace == 1))
	}
	return code
}

func spanFile(ws *workspace, workload string, seed int64) string {
	return filepath.Join(ws.root, buildDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}

// printHeader records where the numbers come from.
func printHeader(root string, cfg config) {
	fmt.Printf("# adjarray bench — seed %d, -seconds %d, trace %d\n", cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# cpu: %s; nproc %d; %s; commit %s; GOMAXPROCS %d (child: 2)\n",
		cpuModel(), runtime.NumCPU(), runtime.Version(), commit(root), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, or "none" where there is no git
// repository (the driver's checkout).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// printMeasured prints the measured pass for a reader: the end-to-end
// metrics, then the workload's own named numbers.
func printMeasured(o *outcome) {
	fmt.Printf("\n## %s — %d ops attempted, %d failed\n", o.Workload, o.Attempted, o.Failed)
	fmt.Printf("# why: %s\n# run: %s\n", o.Why, strings.Join(o.Phases, ", "))
	for _, e := range o.Errors {
		fmt.Printf("# FAILED: %s\n", e)
	}
	fmt.Println("end-to-end:")
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, o.Values[d.Name], d.Unit)
	}
	fmt.Println("measured with tracing off:")
	printValues(o, true)
}

// printLayers prints what the traced replay added.
func printLayers(o *outcome) {
	fmt.Printf("\nper layer, from the traced replay (%s):\n", o.Phases[len(o.Phases)-1])
	for _, e := range o.Errors {
		fmt.Printf("# FAILED: %s\n", e)
	}
	printValues(o, false)
}

func printValues(o *outcome, measured bool) {
	for _, d := range perLayer {
		v, ok := o.Values[d.Name]
		if !ok || strings.Contains(d.What, "(M)") != measured {
			continue
		}
		note := ""
		if pct, ok := o.TailPct[d.Name]; ok {
			note = fmt.Sprintf("  (p%g of %d samples)", pct, o.Samples[d.Name])
		}
		fmt.Printf("  %-34s %14.4f %s%s\n", d.Name, v, d.Unit, note)
	}
}

// resultLine renders the contract's JSON object: every end-to-end
// metric without tracing, every per-layer metric with it.
func resultLine(o *outcome, layers bool) string {
	defs := endToEnd
	if layers {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{o.Values[d.Name], d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, metrics})
	if err != nil {
		panic(err) // floats and strings: cannot fail
	}
	return string(out)
}
