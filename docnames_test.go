package ksp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docDecls is what a qualified name in the documentation may resolve
// against: the module's packages and their top-level declarations, the
// fields and methods of its types, and the string literals its programs
// use outside tests (span, fault-point and metric names read like
// pkg.name).
type docDecls struct {
	pkgs     map[string]map[string]bool // package name → top-level names
	members  map[string]map[string]bool // type name → fields and methods
	literals map[string]bool
}

// loadDocDecls parses every .go file under root, test files and the
// benchmark module included, testdata excluded; string literals are
// taken from the non-test files only.
func loadDocDecls(t *testing.T, root string) *docDecls {
	t.Helper()
	d := &docDecls{
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		literals: map[string]bool{},
	}
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		add(d.pkgs, pkg, "")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(d.pkgs, pkg, decl.Name.Name)
				} else if typ := recvTypeName(decl.Recv.List[0].Type); typ != "" {
					add(d.members, typ, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(d.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(d.pkgs, pkg, spec.Name.Name)
						add(d.members, spec.Name.Name, "")
						for _, m := range typeMembers(spec.Type) {
							add(d.members, spec.Name.Name, m)
						}
					}
				}
			}
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					d.literals[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// recvTypeName is the type name of a method receiver: T, *T, T[P].
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// typeMembers lists a struct's fields (embedded ones by type name) or an
// interface's methods.
func typeMembers(x ast.Expr) []string {
	var out []string
	var fields *ast.FieldList
	switch t := x.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return nil
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			} else if name := recvTypeName(f.Type); name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}

var (
	codeSpan      = regexp.MustCompile("`([^`\n]+)`")
	qualifiedName = regexp.MustCompile(`^[\pL_][\pL\pN_]*(\.[\pL_][\pL\pN_]*)+(\(\))?$`)
	fileSuffix    = regexp.MustCompile(`\.(go|md|json|sh|yml|mod|sum|txt|nt|csv|snap|prof|test)$`)
)

// unresolvedDocNames returns the backticked qualified names in doc —
// pkg.Name, pkg.Type.Member, Type.Member — whose package or type the
// module declares but whose name it does not. A name whose head is
// neither is not checked: the standard library's (`context.Context`), a
// variable's (`s.flights`), the paper's notation, a JSON path or a host
// name. Nor is a name under a heading marked "(deleted)" or in a fenced
// code block.
func unresolvedDocNames(doc string, d *docDecls) []string {
	var bad []string
	deletedLevel := 0 // heading level of the "(deleted)" section being skipped
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if strings.HasPrefix(line, "#") {
			level := len(line) - len(strings.TrimLeft(line, "#"))
			if deletedLevel > 0 && level <= deletedLevel {
				deletedLevel = 0
			}
			if deletedLevel == 0 && strings.Contains(line, "(deleted)") {
				deletedLevel = level
			}
		}
		if deletedLevel > 0 {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			name := strings.TrimSuffix(m[1], "()")
			if !qualifiedName.MatchString(m[1]) || fileSuffix.MatchString(name) ||
				d.literals[name] || d.resolves(strings.Split(name, ".")) {
				continue
			}
			if !slices.Contains(bad, name) {
				bad = append(bad, name)
			}
		}
	}
	return bad
}

// resolves reports whether parts names a declaration, or has a head
// that is neither a package nor a type of the module.
func (d *docDecls) resolves(parts []string) bool {
	head, rest := parts[0], parts[1:]
	switch {
	case d.pkgs[head] != nil:
		if !d.pkgs[head][rest[0]] {
			return false
		}
		head, rest = rest[0], rest[1:]
	case d.members[head] != nil:
	default:
		return true
	}
	// Each further part is a member of the type before it; past a part
	// that is not a type name (a field), the chain is not followed.
	for _, p := range rest {
		members := d.members[head]
		if members == nil {
			return true
		}
		if !members[p] {
			return false
		}
		head = p
	}
	return true
}

// TestDocNamesResolve holds README.md and DESIGN.md to the code: every
// backticked qualified Go name they cite must name a declaration of the
// module.
func TestDocNamesResolve(t *testing.T) {
	d := loadDocDecls(t, ".")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range unresolvedDocNames(string(b), d) {
			t.Errorf("%s cites `%s`, which the module does not declare", doc, name)
		}
	}
}

// The check reports a deleted name wherever a document still cites it,
// and nothing under a "(deleted)" heading.
func TestDocNamesCatchDeletedNames(t *testing.T) {
	d := loadDocDecls(t, ".")
	doc := "The handler writes a `server.SearchResult` per place, counts `ServerSection.SharedFlights`\n" +
		"and keys flights with `server.flightKey()`; `shard.Result`, `ksp.Options.Bound`, `Stats.ScoreBound`,\n" +
		"`context.Context`, `s.flights` and `ui.perfetto.dev` are fine.\n" +
		"```\nx := `server.Fenced`\n```\n" +
		"## 3. Old coalescer (deleted)\n`server.flightGroup`\n### 3.1 its key\n`server.flightKey`\n" +
		"## 4. Next\n`shard.Gone`\n"
	got := unresolvedDocNames(doc, d)
	want := []string{"server.SearchResult", "ServerSection.SharedFlights", "server.flightKey", "shard.Gone"}
	if !slices.Equal(got, want) {
		t.Fatalf("unresolved = %q, want %q", got, want)
	}
}
