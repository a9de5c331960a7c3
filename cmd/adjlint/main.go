// Command adjlint runs the repo's static-analysis suite
// (internal/lint: detfold, syncerr, poolleak, cowmut and shadow) over
// package patterns, loaded through `go list -export`, so it works
// offline from the build cache:
//
//	go build -o adjlint ./cmd/adjlint
//	./adjlint ./...
//
// With no pattern it checks ./... . Findings print as
// file:line:col: message [analyzer]; the exit status is 2 when there
// is any finding and 1 when the packages do not load.
package main

import (
	"fmt"
	"os"

	"adjarray/internal/lint"
	"adjarray/internal/lint/loader"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := run("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Printf("%s: %s [%s]\n", f.Position, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "adjlint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}

// run loads the patterns from dir ("" = the working directory) and
// applies the whole suite to every matched package.
func run(dir string, patterns ...string) ([]lint.Finding, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []lint.Finding
	for _, p := range pkgs {
		fs, err := lint.RunPackage(p)
		if err != nil {
			return nil, fmt.Errorf("adjlint: %s: %v", p.Path, err)
		}
		all = append(all, fs...)
	}
	return all, nil
}
