package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// goRunRe matches a `go run ./cmd/<tool>` invocation and captures the
// tool and the rest of the line.
var goRunRe = regexp.MustCompile(`go run \./cmd/([\w-]+)(.*)`)

// quotedRe matches a quoted shell argument, or an unclosed one that
// runs to the end of the line; flags are never inside quotes.
var quotedRe = regexp.MustCompile(`'[^']*('|$)|"[^"]*("|$)`)

// flagTokenRe matches a -flag or --flag token, capturing its name.
var flagTokenRe = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)

// CheckFlagSamples verifies that every -flag token on a
// `go run ./cmd/<tool>` line inside a fenced code block of the repo's
// markdown is a flag that <tool>'s main package defines, so deleting a
// flag cannot leave a stale sample behind. Flags are read with
// go/parser from the name literal of each flag.* / fs.* definition;
// -h and -help, which the flag package always accepts, are allowed.
func CheckFlagSamples(root string) ([]string, error) {
	files, err := markdownFiles(root)
	if err != nil {
		return nil, err
	}
	defined := map[string]map[string]bool{}
	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		lines := strings.Split(string(data), "\n")
		for i, in := range fenced(lines) {
			m := goRunRe.FindStringSubmatch(lines[i])
			if !in || m == nil {
				continue
			}
			tool := m[1]
			flags, ok := defined[tool]
			if !ok {
				if flags, err = mainFlags(filepath.Join(root, "cmd", tool)); err != nil {
					return nil, err
				}
				defined[tool] = flags
			}
			if flags == nil {
				problems = append(problems, fmt.Sprintf("%s:%d: go run ./cmd/%s: no such command", rel, i+1, tool))
				continue
			}
			args := quotedRe.ReplaceAllString(m[2], "")
			if cut := strings.IndexAny(args, "|&;#<>"); cut >= 0 {
				args = args[:cut] // the rest belongs to another command or a comment
			}
			for _, tok := range strings.Fields(args) {
				if fm := flagTokenRe.FindStringSubmatch(tok); fm != nil && !flags[fm[1]] {
					problems = append(problems, fmt.Sprintf("%s:%d: go run ./cmd/%s: flag -%s is not defined", rel, i+1, tool, fm[1]))
				}
			}
		}
	}
	return problems, nil
}

// mainFlags returns the flag names the non-test Go files in dir define
// — the first string literal passed to any flag.* or fs.* call but
// NewFlagSet, whose literal names the set — plus h and help; nil when
// dir holds no Go files.
func mainFlags(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var flags map[string]bool
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		if flags == nil {
			flags = map[string]bool{"h": true, "help": true}
		}
		ast.Inspect(af, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name == "NewFlagSet" {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return flags, nil
}
