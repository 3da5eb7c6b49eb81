package analysis

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
)

// A Package is one loaded, type-checked package of the module under
// analysis. Only non-test files are loaded: the invariants the checks
// enforce are production-code invariants, and test helpers routinely
// (and legitimately) drop errors or iterate maps.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves, parses, and type-checks packages of one module.
// Module-internal imports are type-checked from source; standard
// library imports come from compiled export data (falling back to
// type-checking the standard library from source where export data is
// unavailable).
type Loader struct {
	ModulePath string
	ModuleDir  string

	fset    *token.FileSet
	ctxt    build.Context
	pkgs    map[string]*Package
	loading map[string]bool
	std     types.Importer
	stdSrc  types.Importer
}

// NewLoader returns a loader rooted at the module containing dir. It
// reads the module path from go.mod.
func NewLoader(dir string, tags []string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctxt := build.Default
	ctxt.BuildTags = append(append([]string(nil), ctxt.BuildTags...), tags...)
	return &Loader{
		ModulePath: modPath,
		ModuleDir:  root,
		fset:       fset,
		ctxt:       ctxt,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "gc", nil),
		stdSrc:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Walk returns the import paths of every buildable package under the
// module root, skipping testdata, hidden, and VCS directories.
func (l *Loader) Walk() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if p, err := l.ctxt.ImportDir(path, 0); err == nil && len(p.GoFiles) > 0 {
			paths = append(paths, l.importPathFor(path))
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleDir
	}
	return filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
}

// Load type-checks the packages at the given import paths (and,
// transitively, everything they import) and returns them in the given
// order.
func (l *Loader) Load(paths []string) ([]*Package, error) {
	var out []*Package
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) { return l.importPkg(imp) }),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, cerr := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	if cerr != nil {
		// Errors normally arrive via the Error hook above; this catches
		// failures (e.g. import cycles) reported only through the return.
		return nil, fmt.Errorf("type-checking %s: %v", path, cerr)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("cgo is not supported")
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.std.Import(path); err == nil {
		return pkg, nil
	}
	return l.stdSrc.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadModule is the one-call entry ksplint and the tests use: load
// every package of the module containing dir (or the packages at the
// explicit import-path patterns) under the given build tags.
// The only patterns supported are "./..." (everything) and
// module-relative directories like "./internal/core".
func LoadModule(dir string, patterns []string, tags []string) ([]*Package, *Loader, error) {
	l, err := NewLoader(dir, tags)
	if err != nil {
		return nil, nil, err
	}
	var paths []string
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := l.Walk()
			if err != nil {
				return nil, nil, err
			}
			paths = append(paths, all...)
		case strings.HasPrefix(pat, "./"):
			paths = append(paths, l.importPathFor(filepath.Join(l.ModuleDir, filepath.FromSlash(pat[2:]))))
		case pat == ".":
			paths = append(paths, l.ModulePath)
		default:
			paths = append(paths, pat)
		}
	}
	pkgs, err := l.Load(paths)
	if err != nil {
		return nil, nil, err
	}
	return pkgs, l, nil
}
