package core

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
// in the module (bench/ and examples/ included) or a file of another
// package uses it. Uses are resolved by type checking, so a method is
// told apart from a same-named method of another type. A method also
// counts as called when its type implements an interface whose method
// of that name is called (a call through mpc.Transport or
// mpc.FaultInjector reaches the implementations), or error's Error or
// fmt.Stringer's String, which the standard library calls. testkit is
// exempt: it exists for tests.
func TestEveryExportIsCalled(t *testing.T) {
	tr := loadTree(t)
	im, fset, fileDir, testFile, declEnd := tr.im, tr.im.fset, tr.fileDir, tr.testFile, tr.declEnd

	// decl is an exported function (recv "") or method of an exported
	// type in a package directly under internal/.
	type decl struct {
		path, recv, name string
		fn               *types.Func
	}
	var decls []decl
	for path := range im.dirs {
		rest, ok := strings.CutPrefix(path, module+"/internal/")
		if !ok || strings.Contains(rest, "/") || rest == "testkit" {
			continue
		}
		scope := im.pkgs[path].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					decls = append(decls, decl{path: path, name: name, fn: obj})
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						decls = append(decls, decl{path: path, recv: name, name: m.Name(), fn: m})
					}
				}
			}
		}
	}

	// calledBy lists, per function key, the directories of the files
	// that call it: a test file counts only outside its own directory,
	// so its path is recorded with a "_test" mark. ifaceCalls lists the
	// interface methods called, canonicalised to the module's own
	// type-checked packages, with the same marks.
	type ifaceCall struct {
		iface *types.Interface
		name  string
		from  string
	}
	calledBy := map[string][]string{}
	var ifaceCalls []ifaceCall
	for id, obj := range im.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		file := fset.Position(id.Pos()).Filename
		from := fileDir[file]
		if testFile[file] {
			from += "_test"
		}
		if it := im.canonicalIface(fn); it != nil {
			ifaceCalls = append(ifaceCalls, ifaceCall{it, fn.Name(), from})
			continue
		}
		// A function that only calls itself has no caller.
		if name := fn.Origin().Pos(); id.Pos() > name && id.Pos() < declEnd[name] {
			continue
		}
		if k := funcKey(fn); k != "" {
			calledBy[k] = append(calledBy[k], from)
		}
	}
	fmtPkg, err := im.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []types.Type{types.Universe.Lookup("error").Type(), fmtPkg.Scope().Lookup("Stringer").Type()} {
		iface := it.Underlying().(*types.Interface)
		ifaceCalls = append(ifaceCalls, ifaceCall{iface, iface.Method(0).Name(), ""})
	}

	var offenders []string
	for _, d := range decls {
		label := im.pkgs[d.path].Name() + "."
		if d.recv != "" {
			label += d.recv + "."
		}
		label += d.name
		if exportAllowlist[label] {
			continue
		}
		counts := func(from string) bool { return from != d.path+"_test" }
		called := false
		for _, from := range calledBy[funcKey(d.fn)] {
			called = called || counts(from)
		}
		if recv := d.fn.Type().(*types.Signature).Recv(); recv != nil && !called {
			for _, c := range ifaceCalls {
				if c.name == d.name && counts(c.from) && implements(recv.Type(), c.iface) {
					called = true
					break
				}
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

// module is the module path of the tree.
const module = "mpcquery"

// tree is the module's files, parsed and type-checked by one
// treeImporter.
type tree struct {
	im       *treeImporter
	fileDir  map[string]string       // file name -> import path of its directory
	testFile map[string]bool         // file name -> whether it is a _test.go file
	declEnd  map[token.Pos]token.Pos // a function's name -> the end of its declaration
}

// loadTree parses every Go file of the module (bench/ and examples/
// included, testdata and dot directories not) and type-checks each
// package with its tests.
func loadTree(t *testing.T) *tree {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	im := &treeImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]*pkgFiles{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	fileDir := map[string]string{}
	testFile := map[string]bool{}
	declEnd := map[token.Pos]token.Pos{}
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
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := pathOf(module, rel)
		pf := im.dirs[pkgPath]
		if pf == nil {
			pf = &pkgFiles{}
			im.dirs[pkgPath] = pf
		}
		fileDir[path], testFile[path] = pkgPath, strings.HasSuffix(name, "_test.go")
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declEnd[fn.Name.Pos()] = fn.End()
			}
		}
		switch {
		case !testFile[path]:
			pf.src = append(pf.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pf.xtest = append(pf.xtest, f)
		default:
			pf.test = append(pf.test, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	im.checkAll()
	return &tree{im: im, fileDir: fileDir, testFile: testFile, declEnd: declEnd}
}

// pathOf is the import path of the directory rel under the module root.
func pathOf(module, rel string) string {
	if rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// pkgFiles are one directory's parsed files: the package's own, its
// in-package tests and its external (_test package) tests.
type pkgFiles struct{ src, test, xtest []*ast.File }

// treeImporter type-checks the tree's packages from their parsed files,
// each once, and the standard library from source. Type errors are
// ignored: a package whose tests import a helper that the package's
// non-test files lack still records every use it resolves.
type treeImporter struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]*pkgFiles      // by import path
	pkgs map[string]*types.Package // canonical: the non-test files only
	info *types.Info               // uses from every check
	over map[string]*types.Package // the package under test, for its _test package
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	if p := im.over[path]; p != nil {
		return p, nil
	}
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	pf := im.dirs[path]
	if pf == nil {
		return im.std.Import(path)
	}
	im.pkgs[path] = im.check(path, pf.src)
	return im.pkgs[path], nil
}

func (im *treeImporter) check(path string, files []*ast.File) *types.Package {
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, _ := conf.Check(path, im.fset, files, im.info)
	return pkg
}

// checkAll checks every package, then each with its in-package tests,
// then its external tests against the latter.
func (im *treeImporter) checkAll() {
	for path := range im.dirs {
		im.Import(path)
	}
	for path, pf := range im.dirs {
		under := im.pkgs[path]
		if len(pf.test) > 0 {
			under = im.check(path, append(append([]*ast.File{}, pf.src...), pf.test...))
		}
		if len(pf.xtest) > 0 {
			im.over = map[string]*types.Package{path: under}
			im.check(path+"_test", pf.xtest)
			im.over = nil
		}
	}
}

// canonicalIface returns the interface declaring fn, looked up in the
// canonical package of its named interface, or nil when fn is not an
// interface method.
func (im *treeImporter) canonicalIface(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if named, ok := recv.Type().(*types.Named); ok && fn.Pkg() != nil {
		if p := im.pkgs[fn.Pkg().Path()]; p != nil {
			if obj := p.Scope().Lookup(named.Obj().Name()); obj != nil {
				if ci, ok := obj.Type().Underlying().(*types.Interface); ok {
					return ci
				}
			}
		}
	}
	return it
}

// funcKey names a function or method by package path, receiver type
// and name, the same for every type-checked copy of its package; "" for
// methods of unnamed types and the universe's.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
}

// implements reports whether t or *t implements iface.
func implements(t types.Type, iface *types.Interface) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}
