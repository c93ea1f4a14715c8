package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// refDocs are the documents whose code spans must name live
// declarations. CHANGES.md and ROADMAP.md are exempt: they name
// deleted APIs on purpose.
var refDocs = []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}

// refRe matches pkg.Name or pkg.Type.Member inside a code span,
// capturing the three parts. The trailing guard skips wildcards such as
// core.Alg* and longer dotted paths.
var refRe = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?(?:$|[^\w.*])`)

// memberRe matches an unprefixed Type.Member inside a code span, with
// the same guards as refRe.
var memberRe = regexp.MustCompile(`(?:^|[^\w.])([A-Z]\w*)\.([A-Z]\w*)(?:$|[^\w.*])`)

// pkgDecls is what one package declares: every top-level and method
// name, and per type its methods and fields (an embedded type marked
// by "").
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

// CheckCodeRefs verifies that every `pkg.Name` or `pkg.Type.Member`
// code span in refDocs names a declaration that exists, when pkg is a
// package under internal/. Name may be a method, the docs' shorthand
// for one; a member is a method or a struct field, and a type that
// embeds another may have members from it, so its unknown members are
// not flagged. An unprefixed `Type.Member` span is checked too, when
// Type names exactly one exported type under internal/. Fenced code
// blocks are not checked.
func CheckCodeRefs(root string) ([]string, error) {
	pkgs, err := internalDecls(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	// typePkgs lists the packages declaring each exported type.
	typePkgs := map[string][]string{}
	for pkg, d := range pkgs {
		for typ := range d.members {
			if ast.IsExported(typ) {
				typePkgs[typ] = append(typePkgs[typ], pkg)
			}
		}
	}
	var problems []string
	for _, doc := range refDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		lines := strings.Split(string(data), "\n")
		for i, in := range fenced(lines) {
			if in {
				continue
			}
			for _, span := range inlineCodeRe.FindAllString(lines[i], -1) {
				for _, m := range refRe.FindAllStringSubmatch(span, -1) {
					if p := checkRef(pkgs, m[1], m[2], m[3]); p != "" {
						problems = append(problems, fmt.Sprintf("%s:%d: %s", doc, i+1, p))
					}
				}
				for _, m := range memberRe.FindAllStringSubmatch(span, -1) {
					if p := checkMember(pkgs, typePkgs[m[1]], m[1], m[2]); p != "" {
						problems = append(problems, fmt.Sprintf("%s:%d: %s", doc, i+1, p))
					}
				}
			}
		}
	}
	return problems, nil
}

// checkRef returns a problem when pkg is an internal package that does
// not declare name, or whose type name has no member.
func checkRef(pkgs map[string]*pkgDecls, pkg, name, member string) string {
	d, ok := pkgs[pkg]
	if !ok {
		return ""
	}
	if !d.names[name] {
		return fmt.Sprintf("%s.%s: package %s declares no %s", pkg, name, pkg, name)
	}
	if ms, isType := d.members[name]; member != "" && isType && !ms[member] && !ms[""] {
		return fmt.Sprintf("%s.%s.%s: type %s has no method or field %s", pkg, name, member, name, member)
	}
	return ""
}

// checkMember returns a problem when typ, declared in the packages
// decls, has member in none of them. A type name declared in exactly
// one package is checked as pkg.Type.Member; one that several packages
// declare passes when any of them has the member; one no package
// declares is not checked.
func checkMember(pkgs map[string]*pkgDecls, decls []string, typ, member string) string {
	if len(decls) == 1 {
		return checkRef(pkgs, decls[0], typ, member)
	}
	for _, pkg := range decls {
		if checkRef(pkgs, pkg, typ, member) == "" {
			return ""
		}
	}
	if len(decls) == 0 {
		return ""
	}
	slices.Sort(decls)
	return fmt.Sprintf("%s.%s: no type %s (in %s) has a method or field %s", typ, member, typ, strings.Join(decls, ", "), member)
}

// internalDecls parses the non-test Go files under dir and returns the
// declarations of each package, keyed by package name.
func internalDecls(dir string) (map[string]*pkgDecls, error) {
	pkgs := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		p := pkgs[f.Name.Name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
			pkgs[f.Name.Name] = p
		}
		member := func(typ, name string) {
			if p.members[typ] == nil {
				p.members[typ] = map[string]bool{}
			}
			p.members[typ][name] = true
		}
		for _, decl := range f.Decls {
			switch x := decl.(type) {
			case *ast.FuncDecl:
				p.names[x.Name.Name] = true
				if x.Recv != nil {
					member(recvName(x.Recv.List[0].Type), x.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.names[s.Name.Name] = true
						if p.members[s.Name.Name] == nil {
							p.members[s.Name.Name] = map[string]bool{}
						}
						var fields []*ast.Field
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields.List
						case *ast.InterfaceType:
							fields = t.Methods.List
						}
						for _, fld := range fields {
							if len(fld.Names) == 0 {
								member(s.Name.Name, "")
							}
							for _, n := range fld.Names {
								member(s.Name.Name, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	return pkgs, err
}

// recvName names a method's receiver type: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
