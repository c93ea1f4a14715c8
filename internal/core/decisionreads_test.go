package core

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reportReads names the free global reads (mpc.Cluster.TotalLen and
// MaxFragLen) that only report a run, by package and by the name their
// value is stored under: a composite-literal field, an assigned
// variable or field, or, for a returned read, the function.
var reportReads = map[string]bool{
	"aggregate Groups":     true, // Result.Groups
	"bigjoin maxBind":      true, // the largest binding footprint
	"yannakakis joinRound": true, // GYM's intermediate size, Result.MaxIntermediate
	"recursive OutSize":    true, // Result.OutSize
	"recursive sizeBefore": true, // BatchStats.Deleted
	"recursive sizeMid":    true, // BatchStats.Deleted and Inserted
	"recursive Inserted":   true, // BatchStats.Inserted
}

// TestDecisionsReadThroughExchanges is the decision-read wall. In the MPC
// model servers learn about each other only through communication, so
// a driver that decides from what the servers hold must read it through
// a metered mpc.Cluster.Exchange (or Loads or Choose, which exchange
// counts). TotalLen and MaxFragLen read the simulator's global view for
// free; in the non-test files of an algorithm package, every package
// under internal/ but mpc, which defines the reads, and testkit and
// experiments, which report runs, each such read must be one that only
// reports (reportReads). Calls are resolved by type checking.
func TestDecisionsReadThroughExchanges(t *testing.T) {
	tr := loadTree(t)
	im, fset := tr.im, tr.im.fset
	free := map[string]bool{
		module + "/internal/mpc.Cluster.TotalLen":   true,
		module + "/internal/mpc.Cluster.MaxFragLen": true,
	}
	var offenders []string
	for path, pf := range im.dirs {
		pkg, ok := strings.CutPrefix(path, module+"/internal/")
		if !ok || pkg == "mpc" || pkg == "testkit" || pkg == "experiments" {
			continue
		}
		for _, f := range pf.src {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := im.info.Uses[sel.Sel].(*types.Func)
				if !ok || !free[funcKey(fn)] {
					return true
				}
				if at := storedAs(stack); !reportReads[pkg+" "+at] {
					pos := fset.Position(sel.Pos())
					offenders = append(offenders, fmt.Sprintf("%s:%d: %s in %s, stored as %q",
						pos.Filename[strings.Index(pos.Filename, "internal/"):], pos.Line, sel.Sel.Name, enclosingFunc(stack), at))
				}
				return true
			})
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s: a decision reads the cluster for free; read it through Cluster.Exchange, or list a read that only reports in reportReads", o)
	}
}

// storedAs names where the value of the read at the top of stack goes:
// the field of a composite literal, the variable or field assigned, or
// the enclosing function when it is returned. Conversions, arithmetic
// and builtin calls around the read pass it through; any other context,
// such as a condition or a call's argument, stores it nowhere ("").
func storedAs(stack []ast.Node) string {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CallExpr:
			if i+1 < len(stack) && stack[i+1] == n.Fun {
				continue // the read's own call
			}
			if id, ok := n.Fun.(*ast.Ident); !ok || !passesThrough[id.Name] {
				return ""
			}
		case *ast.ParenExpr, *ast.BinaryExpr:
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				return id.Name
			}
			return ""
		case *ast.AssignStmt:
			return nameOf(n.Lhs[0])
		case *ast.ValueSpec:
			return n.Names[0].Name
		case *ast.ReturnStmt:
			return enclosingFunc(stack[:i])
		default:
			return ""
		}
	}
	return ""
}

// passesThrough are the calls a read's value flows through unchanged
// in kind: conversions and max/min.
var passesThrough = map[string]bool{"int": true, "int64": true, "max": true, "min": true}

// nameOf names an assignment's target: a variable, or a field's name.
func nameOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// enclosingFunc names the innermost function declaration on stack.
func enclosingFunc(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
