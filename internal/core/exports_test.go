package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
// in the module (bench/ included) or a file of another package uses its
// name. The match is by name alone, since which declaration a selector
// reaches is not known without type checking, so a dead export that
// shares its name with a live one goes unseen. testkit is exempt: it
// exists for tests.
func TestEveryExportIsCalled(t *testing.T) {
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

	// names[i] holds every identifier file i uses, its declarations'
	// own names aside.
	names := make([]map[string]bool, len(files))
	for i, f := range files {
		used := map[string]bool{}
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
			case *ast.Ident:
				used[x.Name] = true
			}
			return true
		}
		ast.Inspect(f.ast, visit)
		names[i] = used
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
			if f.test && f.dir == d.dir {
				continue
			}
			if names[i][d.name] {
				called = true
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
