package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package of a module under
// analysis.
type Package struct {
	// Path is the import path ("repro/internal/mapreduce").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks module-local packages with no help
// from golang.org/x/tools: module import paths are resolved against
// registered root directories, everything else (the standard library)
// is type-checked from $GOROOT/src by the stdlib "source" importer.
type Loader struct {
	Fset *token.FileSet

	mu    sync.Mutex
	roots map[string]string // module path prefix -> directory
	pkgs  map[string]*Package
	std   types.Importer
}

// stdlib source importing must not try to run cgo; the pure-Go
// fallbacks of net etc. type-check fine. build.Default is package
// state, so flip it once for the process.
var disableCgo = sync.OnceFunc(func() { build.Default.CgoEnabled = false })

// NewLoader returns an empty loader. Register at least one module root
// with AddRoot before loading.
func NewLoader() *Loader {
	disableCgo()
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		roots: map[string]string{},
		pkgs:  map[string]*Package{},
		std:   importer.ForCompiler(fset, "source", nil),
	}
}

// AddRoot maps import paths beginning with modPath to the directory
// tree rooted at dir. Longest registered prefix wins, so a test can
// re-root a single package ("repro/internal/core" -> a fixture
// directory) on top of a whole-module root.
func (l *Loader) AddRoot(modPath, dir string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.roots[modPath] = dir
}

// ModulePath reads the module path out of dir's go.mod.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}

// dirFor resolves an import path against the registered roots, or
// returns false when no root covers it (a stdlib path).
func (l *Loader) dirFor(path string) (string, bool) {
	best, bestDir := "", ""
	for mod, dir := range l.roots {
		if path != mod && !strings.HasPrefix(path, mod+"/") {
			continue
		}
		if len(mod) > len(best) {
			best, bestDir = mod, dir
		}
	}
	if best == "" {
		return "", false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, best), "/")
	return filepath.Join(bestDir, filepath.FromSlash(rel)), true
}

// Load parses and type-checks the package at the given import path
// (memoized), loading module-local dependencies recursively.
func (l *Loader) Load(path string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(path)
}

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("no registered root covers %q", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importerFunc(l.importPath)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) importPath(path string) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// parseDir parses the non-test Go files of one directory that a default
// build compiles: a file whose build constraints exclude it (a test-only
// tag, another GOOS) is left out, as go build leaves it out.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadModule walks the tree under the root registered for modPath and
// loads every package in it, skipping testdata, hidden, and vendor
// directories. Packages are returned sorted by import path.
func (l *Loader) LoadModule(modPath string) ([]*Package, error) {
	l.mu.Lock()
	root, ok := l.roots[modPath]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("module %q not registered", modPath)
	}
	seen := map[string]bool{}
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		if !seen[ip] {
			seen[ip] = true
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, ip := range paths {
		p, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
