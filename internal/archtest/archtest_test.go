// Package archtest holds the repository's design invariants as one table of
// rules over the syntax of its Go files. Each row states something a
// refactor removed or made unique ("one place classifies select-box
// predicates", "colEnabled stays deleted"), where it may still stand, and
// the message a regrowth fails with. The rules run under go test ./..., so a
// tier-1 run sees a deleted helper grow back the way it sees a wrong answer.
//
// Rules match code, not text: go/parser reads every non-test Go file outside
// bench/, so a name in a comment or a string never trips a row, while a
// method value or a renamed import does. The package has only test files and
// imports only the standard library.
package archtest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// module is the import path of the repository root (go.mod).
const module = "decorr"

// many is the upper bound of a row that caps nothing.
const many = 1 << 30

// A rule is one row of the table: every match of match in files must stand
// where in allows, and the number of matches must lie in [min, max].
type rule struct {
	name string
	// files are slash-separated globs from the repository root, as
	// path.Match reads them; "..." is every file and a leading "!" removes
	// what it matches. Test files and bench/ are never read unless
	// everyFile is set.
	files     []string
	everyFile bool
	match     matcher
	// in lists where a match may stand: a file ("internal/exec/exec.go") or
	// a top-level function or method in it ("internal/exec/exec.go:New").
	// Empty means anywhere in files.
	in       []string
	min, max int
	// msg is the failure text; a %d in it is replaced by the match count.
	msg string
	// bad is a snippet that breaks the rule when added to the tree at
	// fixture: the declarations (and imports) of a file after its package
	// clause.
	fixture, bad string
}

// A matcher reports the positions in f that a rule counts.
type matcher func(f *file) []token.Pos

// A file is one Go file of the tree: its source and, for the files code
// rules read, its syntax.
type file struct {
	path  string // slash-separated, from the repository root
	src   []byte
	fset  *token.FileSet
	ast   *ast.File // nil for test files and bench/
	funcs []*ast.FuncDecl
	// decls holds the identifiers that declare a name rather than use it,
	// sels those that a selector picks (the f of x.f).
	decls, sels map[*ast.Ident]bool
}

// codeFile reports whether code rules read p: a non-test file outside bench/.
func codeFile(p string) bool {
	return !strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(p, "bench/")
}

func parseFile(fset *token.FileSet, p string, src []byte) (*file, error) {
	f := &file{path: p, src: src, fset: fset}
	if !codeFile(p) {
		return f, nil
	}
	af, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f.ast = af
	f.decls, f.sels = identRoles(af)
	for _, d := range af.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			f.funcs = append(f.funcs, fd)
		}
	}
	return f, nil
}

var (
	treeOnce sync.Once
	tree     []*file
	treeHits [][]hit // treeHits[i] is rules[i]'s matches in tree
	treeErr  error
)

// loadTree reads every Go file under the repository root, skipping
// directories the go tool ignores, and matches every rule against them,
// once per test binary.
func loadTree(t *testing.T) []*file {
	t.Helper()
	treeOnce.Do(func() {
		fset := token.NewFileSet()
		treeErr = filepath.WalkDir("../..", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if p != "../.." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel("../..", p)
			if err != nil {
				return err
			}
			f, err := parseFile(fset, filepath.ToSlash(rel), src)
			if err != nil {
				return err
			}
			tree = append(tree, f)
			return nil
		})
		for _, r := range rules {
			treeHits = append(treeHits, r.hits(tree))
		}
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// reads reports whether r reads the file at p.
func (r rule) reads(p string) bool {
	if !r.everyFile && !codeFile(p) {
		return false
	}
	in := false
	for _, g := range r.files {
		if neg := strings.HasPrefix(g, "!"); neg {
			if globMatch(g[1:], p) {
				return false
			}
		} else if globMatch(g, p) {
			in = true
		}
	}
	return in
}

func globMatch(g, p string) bool {
	if g == "..." {
		return true
	}
	ok, _ := path.Match(g, p)
	return ok
}

// A hit is one match, where it stands.
type hit struct {
	path string
	line int
	fn   string // enclosing top-level function or method, "" outside one
}

func (h hit) String() string {
	if h.line == 0 { // a whole-file match
		return h.path
	}
	return fmt.Sprintf("%s:%d", h.path, h.line)
}

// hits runs r's matcher over the files r reads.
func (r rule) hits(files []*file) []hit {
	var out []hit
	for _, f := range files {
		if !r.reads(f.path) {
			continue
		}
		for _, pos := range r.match(f) {
			h := hit{path: f.path, line: f.fset.Position(pos).Line}
			for _, fd := range f.funcs {
				if fd.Pos() <= pos && pos < fd.End() {
					h.fn = fd.Name.Name
				}
			}
			out = append(out, h)
		}
	}
	return out
}

func (r rule) allows(h hit) bool {
	if len(r.in) == 0 {
		return true
	}
	for _, w := range r.in {
		file, fn, _ := strings.Cut(w, ":")
		if globMatch(file, h.path) && (fn == "" || fn == h.fn) {
			return true
		}
	}
	return false
}

// check returns r's failure report for hits, "" when r holds.
func (r rule) check(hits []hit) string {
	ok := len(hits) >= r.min && len(hits) <= r.max
	for _, h := range hits {
		ok = ok && r.allows(h)
	}
	if ok {
		return ""
	}
	var b strings.Builder
	if strings.Contains(r.msg, "%d") {
		fmt.Fprintf(&b, r.msg, len(hits))
	} else {
		b.WriteString(r.msg)
	}
	for _, h := range hits {
		fmt.Fprintf(&b, "\n\t%s", h)
		if !r.allows(h) {
			b.WriteString(" (not allowed here)")
		}
	}
	return b.String()
}

// identRoles returns the identifiers of f that introduce a name — the names
// of declarations, fields, parameters, := and range variables, labels,
// import aliases and the field keys of composite literals — and those that
// a selector picks.
func identRoles(f *ast.File) (decl, sels map[*ast.Ident]bool) {
	decl, sels = map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	add := func(es ...ast.Expr) {
		for _, e := range es {
			if id, ok := e.(*ast.Ident); ok {
				decl[id] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			decl[n.Name] = true
		case *ast.Field:
			for _, id := range n.Names {
				decl[id] = true
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				decl[id] = true
			}
		case *ast.TypeSpec:
			decl[n.Name] = true
		case *ast.ImportSpec:
			if n.Name != nil {
				decl[n.Name] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				add(n.Lhs...)
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				add(n.Key, n.Value)
			}
		case *ast.LabeledStmt:
			decl[n.Label] = true
		case *ast.BranchStmt:
			if n.Label != nil {
				decl[n.Label] = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					add(kv.Key)
				}
			}
		case *ast.SelectorExpr:
			sels[n.Sel] = true
		}
		return true
	})
	return decl, sels
}

// inspect collects the positions of the nodes of f for which at returns true.
func inspect(f *file, at func(ast.Node) bool) []token.Pos {
	var out []token.Pos
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if n != nil && at(n) {
			out = append(out, n.Pos())
		}
		return true
	})
	return out
}

// lastName is the name an expression ends in: x for x, x.y.z for z.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// ref matches a use, not a declaration, of any of paths. A path "f" is the
// identifier f wherever it is used: a call, a function or method value, a
// field. "a.f" is f selected from something that ends in a, so "opts.Tracer"
// matches ex.opts.Tracer too; ".f" is f selected from anything.
func ref(paths ...string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			for _, p := range paths {
				x, field, dotted := strings.Cut(p, ".")
				switch n := n.(type) {
				case *ast.Ident:
					if !dotted && n.Name == p && !f.decls[n] {
						return true
					}
				case *ast.SelectorExpr:
					if dotted && n.Sel.Name == field && (x == "" || lastName(n.X) == x) {
						return true
					}
				}
			}
			return false
		})
	}
}

// ident matches any identifier spelled as one of names, declaring or used.
func ident(names ...string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			return ok && slices.Contains(names, id.Name)
		})
	}
}

// decl matches a top-level declaration of name: a function, method, type,
// variable or constant. Locals, fields and comments are not declarations.
func decl(name string) matcher {
	return func(f *file) []token.Pos {
		var out []token.Pos
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == name {
					out = append(out, d.Name.Pos())
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.Name == name {
							out = append(out, s.Name.Pos())
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name == name {
								out = append(out, id.Pos())
							}
						}
					}
				}
			}
		}
		return out
	}
}

// pkgName reports whether e names name from the package at import path
// pkg, resolved through f's imports: pkg's local name (its alias, if any)
// selecting name, a bare name under a dot import, or a bare name inside pkg
// itself.
func pkgName(f *file, e ast.Expr, pkg, name string) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && e.Sel.Name == name && localName(f, pkg) == x.Name
	case *ast.Ident:
		return e.Name == name && !f.decls[e] && !f.sels[e] &&
			(localName(f, pkg) == "." || pkg == path.Join(module, path.Dir(f.path)))
	}
	return false
}

// localName is the name f refers to the package at import path pkg by, ""
// when f does not import it.
func localName(f *file, pkg string) string {
	for _, im := range f.ast.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); p == pkg {
			if im.Name != nil {
				return im.Name.Name
			}
			return path.Base(pkg)
		}
	}
	return ""
}

// sel matches a use of name from the package at import path pkg, however
// the file imports it.
func sel(pkg, name string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			return ok && pkgName(f, e, pkg, name)
		})
	}
}

// neq matches a != comparison against name from the package at pkg.
func neq(pkg, name string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			return ok && b.Op == token.NEQ && (pkgName(f, b.X, pkg, name) || pkgName(f, b.Y, pkg, name))
		})
	}
}

// lit matches a composite literal of the named type (T{…}, &T{…}, p.T{…}).
func lit(typ string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			c, ok := n.(*ast.CompositeLit)
			return ok && c.Type != nil && lastName(c.Type) == typ
		})
	}
}

// str matches a string literal whose value is s.
func str(s string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BasicLit)
			if !ok || b.Kind != token.STRING {
				return false
			}
			v, err := strconv.Unquote(b.Value)
			return err == nil && v == s
		})
	}
}

// inc matches x++ where the counter x, less any index or selector in front
// of its name, is one of names: refs++, ex.refs++, refCount[b]++.
func inc(names ...string) matcher {
	return func(f *file) []token.Pos {
		return inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.IncDecStmt)
			if !ok || s.Tok != token.INC {
				return false
			}
			x := s.X
			for {
				ix, ok := x.(*ast.IndexExpr)
				if !ok {
					break
				}
				x = ix.X
			}
			return slices.Contains(names, lastName(x))
		})
	}
}

// gofmt matches a file that go/format would rewrite.
func gofmt(f *file) []token.Pos {
	out, err := format.Source(f.src)
	if err == nil && bytes.Equal(out, f.src) {
		return nil
	}
	return []token.Pos{token.NoPos}
}

// TestRules checks every row of the table against the tree.
func TestRules(t *testing.T) {
	loadTree(t)
	for i, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if msg := r.check(treeHits[i]); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// fixtureFile parses body as a file at the pretend path p.
func fixtureFile(t *testing.T, p, body string) *file {
	t.Helper()
	src := "package p\n\n" + body + "\n"
	f, err := parseFile(token.NewFileSet(), p, []byte(src))
	if err != nil {
		t.Fatalf("fixture %s does not parse: %v\n%s", p, err, src)
	}
	return f
}

// TestRulesFire checks that each row catches its own violation added to the
// tree, and that the same text inside a comment or a string literal — what a
// grep counts — matches nothing.
func TestRulesFire(t *testing.T) {
	loadTree(t)
	for i, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			if r.bad == "" || r.fixture == "" {
				t.Fatal("row has no violating fixture")
			}
			at := func(body string) []hit { return r.hits([]*file{fixtureFile(t, r.fixture, body)}) }
			bad := at(r.bad)
			head, _, _ := strings.Cut(r.msg, "%d")
			if got := r.check(append(slices.Clip(treeHits[i]), bad...)); len(bad) == 0 || !strings.Contains(got, head) {
				t.Errorf("violation at %s passes; want %q\n%s", r.fixture, head, r.bad)
			}
			for _, inert := range []string{
				"/*\n" + r.bad + "\n*/",
				"var _ = `\n" + r.bad + "\n`",
			} {
				if h := at(inert); len(h) > 0 {
					t.Errorf("inert text at %s matches at %v:\n%s", r.fixture, h, inert)
				}
			}
		})
	}
}

// TestRulesLive fails on a row that can no longer fire: one whose files, or
// an allowed place, name nothing in the tree.
func TestRulesLive(t *testing.T) {
	files := loadTree(t)
	for _, r := range rules {
		read := false
		for _, f := range files {
			read = read || r.reads(f.path)
		}
		if !read {
			t.Errorf("%s: files %q match no file of the tree", r.name, r.files)
		}
		for _, w := range r.in {
			file, fn, _ := strings.Cut(w, ":")
			found := false
			for _, f := range files {
				if !globMatch(file, f.path) || !r.reads(f.path) {
					continue
				}
				if fn == "" {
					found = true
				}
				for _, fd := range f.funcs {
					found = found || fd.Name.Name == fn
				}
			}
			if !found {
				t.Errorf("%s: allowed place %q names nothing the row reads", r.name, w)
			}
		}
	}
}
