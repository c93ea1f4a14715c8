package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// placementPackages are the packages that shuffle tuples by hash: every
// algorithm package, and core, which hands them the query seed.
var placementPackages = []string{"aggregate", "bigjoin", "core", "hypercube", "join2", "matmul", "recursive", "sortmpc", "yannakakis"}

// TestNoSeedArithmetic pins that hash placement is derived in one place.
// A shuffle's seed is mpc.HashSeed over the query seed and the variables
// it hashes, so two shuffles on the same variables meet on one server.
// A seed combined by + ^ * | is a placement of its own that no other
// shuffle can meet, so no non-test file of placementPackages may have
// one.
func TestNoSeedArithmetic(t *testing.T) {
	ops := map[token.Token]bool{
		token.ADD: true, token.XOR: true, token.MUL: true, token.OR: true,
		token.ADD_ASSIGN: true, token.XOR_ASSIGN: true, token.MUL_ASSIGN: true, token.OR_ASSIGN: true,
	}
	fset, files := placementFiles(t)
	var sites []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			var operands []ast.Expr
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if ops[x.Op] {
					operands = []ast.Expr{x.X, x.Y}
				}
			case *ast.AssignStmt:
				if ops[x.Tok] {
					operands = append(x.Lhs, x.Rhs...)
				}
			}
			for _, e := range operands {
				if isSeed(e) {
					sites = append(sites, fset.Position(n.Pos()).String()+": "+nodeString(n))
					break
				}
			}
			return true
		})
	}
	for _, s := range sites {
		t.Errorf("seed arithmetic at %s; derive the seed with mpc.HashSeed", s)
	}
}

// TestGatherReadsOnlyTheAnswer pins that operators compose on the
// cluster. Only the initial placement is free in the MPC model; a
// relation gathered to the driver and scattered again is moved without
// being metered, and the next round no longer sees where the last one
// left it. So the non-test files of placementPackages call Gather once,
// in Engine.run, which reads the answer.
func TestGatherReadsOnlyTheAnswer(t *testing.T) {
	fset, files := placementFiles(t)
	inRun := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			isRun := fn.Name.Name == "run" && fn.Recv != nil && types.ExprString(fn.Recv.List[0].Type) == "*Engine"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Gather" {
					return true
				}
				if isRun {
					inRun++
				} else {
					t.Errorf("Gather at %s in %s: %s; leave the relation on the cluster for the next round",
						fset.Position(call.Pos()), fn.Name.Name, types.ExprString(call))
				}
				return true
			})
		}
	}
	if inRun != 1 {
		t.Errorf("Engine.run calls Gather %d times, want once", inRun)
	}
}

// placementFiles parses the non-test Go files of placementPackages.
func placementFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for _, pkg := range placementPackages {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			name := ent.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	return fset, files
}

// isSeed reports whether e is a seed: an identifier or field named seed
// or Seed, possibly parenthesised or converted (uint64(e.Seed)).
func isSeed(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return isSeed(x.X)
	case *ast.CallExpr:
		return len(x.Args) == 1 && isSeed(x.Args[0])
	case *ast.Ident:
		return x.Name == "seed" || x.Name == "Seed"
	case *ast.SelectorExpr:
		return x.Sel.Name == "seed" || x.Sel.Name == "Seed"
	}
	return false
}

// nodeString prints a flagged expression or assignment for the report.
func nodeString(n ast.Node) string {
	switch x := n.(type) {
	case ast.Expr:
		return types.ExprString(x)
	case *ast.AssignStmt:
		return types.ExprString(x.Lhs[0]) + " " + x.Tok.String() + " ..."
	}
	return ""
}
