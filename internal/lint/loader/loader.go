// Package loader loads type-checked packages for the adjlint
// analyzers without golang.org/x/tools/go/packages: it shells out to
// `go list -export -deps -json` for package metadata and compiled
// export data, parses the target packages from source, and type-checks
// them against the export data through the standard library's gc
// importer. Offline by construction — everything comes from the local
// build cache.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked target package.
type Package struct {
	Path    string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	GoFiles []string
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir (go list syntax; dir "" = cwd), compiles
// their dependency closure for export data, and returns the matched
// (non-dependency) packages parsed from source and type-checked.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, exports, err := list(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var out []*Package
	for _, lp := range pkgs {
		if lp.DepOnly || lp.Standard {
			continue
		}
		p, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// list runs go list and returns the decoded packages plus the
// importpath→export-file map over the whole closure.
func list(dir string, patterns ...string) ([]*listPackage, map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	dec := json.NewDecoder(outPipe)
	var pkgs []*listPackage
	exports := map[string]string{}
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, nil, fmt.Errorf("lint/loader: decoding go list output: %v (stderr: %s)", err, stderr.String())
		}
		pkgs = append(pkgs, lp)
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("lint/loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return pkgs, exports, nil
}

// ExportClosure compiles the named import paths (run from dir; "" =
// cwd) and returns export-data files for them and their transitive
// dependencies — what a fixture package's importer needs.
func ExportClosure(dir string, paths ...string) (map[string]string, error) {
	_, exports, err := list(dir, paths...)
	return exports, err
}

// ExportImporter builds a types.Importer that resolves import paths
// through compiled export data files (importpath → file path), via the
// standard gc importer.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint/loader: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// NewInfo allocates a types.Info with every map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	if lp.Error != nil {
		return nil, fmt.Errorf("lint/loader: %s: %s", lp.ImportPath, lp.Error.Err)
	}
	var files []*ast.File
	var paths []string
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint/loader: %v", err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	info := NewInfo()
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint/loader: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:    lp.ImportPath,
		Fset:    fset,
		Files:   files,
		Types:   pkg,
		Info:    info,
		GoFiles: paths,
	}, nil
}
