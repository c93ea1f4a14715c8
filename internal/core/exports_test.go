package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions under internal/ that may
// have no caller yet: the cost package's lower bounds, which the static
// policy verifier and EXPLAIN ANALYZE are to call (ROADMAP items 6(b)
// and 9).
var exportAllowlist = map[string]bool{
	"cost.ExpectedHashLoad":        true,
	"cost.HyperCubeLoadEqualSizes": true,
	"cost.MatMulRoundsLB":          true,
	"cost.MultiRoundLoadLB":        true,
	"cost.SpeedupExponent":         true,
}

// TestEveryExportIsCalled pins that the internal packages export only
// what something runs. Go's import rule keeps internal/ to this module,
// so an exported function or method that only its own package's tests
// call has no consumer anywhere: it moves into a _test.go file or is
// deleted. A declaration counts as called when a non-test file anywhere
// in the module (bench/ included) or a file of another package uses it.
// A function is resolved by package: its own package's non-test files
// must name it bare, and another package must name it through an
// import of its package, as pkg.Name. A method is matched by name
// alone, since which type a selector reaches is not known without type
// checking, so a dead method that shares its name with a live
// identifier goes unseen. testkit is exempt: it exists for tests.
func TestEveryExportIsCalled(t *testing.T) {
	const module = "mpcquery"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type file struct {
		dir  string
		test bool
		ast  *ast.File
	}
	var files []file
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, file{dir: filepath.Dir(path), test: strings.HasSuffix(path, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// decl is an exported function (recv "") or method under internal/.
	type decl struct{ dir, recv, name string }
	internal := filepath.Join(root, "internal")
	var decls []decl
	for _, f := range files {
		if f.test || filepath.Dir(f.dir) != internal || filepath.Base(f.dir) == "testkit" {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			recv := ""
			if fn.Recv != nil {
				recv = receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
			}
			decls = append(decls, decl{dir: f.dir, recv: recv, name: fn.Name.Name})
		}
	}

	// use is what one file names, its declarations' own names aside:
	// every identifier, the identifiers that are not a selector's
	// member, and the dir.Name pairs it reaches as pkg.Name through an
	// import of the package in dir.
	type use struct{ names, bare, qualified map[string]bool }
	uses := make([]use, len(files))
	for i, f := range files {
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			rest, ok := strings.CutPrefix(path, module+"/")
			if !ok {
				continue
			}
			name := pathpkg.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = filepath.Join(root, filepath.FromSlash(rest))
		}
		u := use{names: map[string]bool{}, bare: map[string]bool{}, qualified: map[string]bool{}}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil {
					ast.Inspect(x.Recv, visit)
				}
				ast.Inspect(x.Type, visit)
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.ImportSpec:
				return false
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					u.qualified[imports[id.Name]+"."+x.Sel.Name] = true
				}
				u.names[x.Sel.Name] = true
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				u.names[x.Name] = true
				u.bare[x.Name] = true
			}
			return true
		}
		ast.Inspect(f.ast, visit)
		uses[i] = u
	}

	var offenders []string
	for _, d := range decls {
		label := filepath.Base(d.dir) + "."
		if d.recv != "" {
			label += d.recv + "."
		}
		label += d.name
		if exportAllowlist[label] {
			continue
		}
		called := false
		for i, f := range files {
			switch {
			case f.dir == d.dir && f.test:
				continue
			case d.recv != "":
				called = uses[i].names[d.name]
			case f.dir == d.dir:
				called = uses[i].bare[d.name]
			default:
				called = uses[i].qualified[d.dir+"."+d.name]
			}
			if called {
				break
			}
		}
		if !called {
			offenders = append(offenders, label)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is exported but only its own package's tests call it; give it a caller, move it into a _test.go file, or delete it", o)
	}
}

// receiverType names a method's receiver type: T for T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
