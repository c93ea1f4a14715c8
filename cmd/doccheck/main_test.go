package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func write(t *testing.T, root, name, content string) {
	t.Helper()
	path := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMarkdownLinks(t *testing.T) {
	root := t.TempDir()
	write(t, root, "README.md", strings.Join([]string{
		"# Title",
		"## Query planning",
		"See [the guide](docs/guide.md) and [planning](#query-planning).",
		"Broken: [missing](nope.md) and [bad anchor](docs/guide.md#nowhere).",
		"External [ok](https://example.com/x#y).",
		"```",
		"[not a link](also-missing.md)",
		"```",
		"Inline `[code](ignored.md)` span.",
	}, "\n"))
	write(t, root, "docs/guide.md", "# Guide\n## The (L, r, C) model\nBack to [readme](../README.md#query-planning).\n")

	problems, err := CheckMarkdown(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("want 2 problems, got %d: %v", len(problems), problems)
	}
	if !strings.Contains(problems[0], "nope.md") {
		t.Errorf("first problem should be the missing file: %v", problems[0])
	}
	if !strings.Contains(problems[1], "#nowhere") {
		t.Errorf("second problem should be the bad anchor: %v", problems[1])
	}
}

func TestCheckMarkdownAnchorSlugs(t *testing.T) {
	root := t.TempDir()
	// Punctuation is dropped, spaces hyphenate, duplicates get -N.
	write(t, root, "a.md", strings.Join([]string{
		"# The (L, r, C) model",
		"## Setup",
		"## Setup",
		"[one](b.md#the-l-r-c-model)",
		"[two](b.md#setup-1)",
	}, "\n"))
	write(t, root, "b.md", "# The (L, r, C) model\n## Setup\n## Setup\n")
	problems, err := CheckMarkdown(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("want no problems, got %v", problems)
	}
}

func TestCheckMarkdownSkipsRetrievalArtifacts(t *testing.T) {
	root := t.TempDir()
	write(t, root, "SNIPPETS.md", "[dead](gone.md)\n")
	write(t, root, "PAPERS.md", "[dead](gone.md)\n")
	write(t, root, "PAPER.md", "[dead](gone.md)\n")
	problems, err := CheckMarkdown(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("retrieval artifacts must not be scanned as sources, got %v", problems)
	}
}

func TestCheckPackageDocs(t *testing.T) {
	root := t.TempDir()
	write(t, root, "good/good.go", "// Package good is documented.\npackage good\n")
	write(t, root, "bad/bad.go", "package bad\n")
	write(t, root, "testonly/x_test.go", "package testonly\n")
	problems, err := CheckPackageDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "bad") {
		t.Fatalf("want exactly the undocumented package flagged, got %v", problems)
	}
}

func TestCheckFlagSamples(t *testing.T) {
	root := t.TempDir()
	write(t, root, "cmd/mpcrun/main.go", `// Command mpcrun runs a query.
package main

import "flag"

func run(args []string) {
	fs := flag.NewFlagSet("mpcrun", flag.ContinueOnError)
	fs.Int("p", 16, "servers")
	fs.String("q", "", "query")
	fs.String("skew", "none", "skew")
	var verbose bool
	fs.BoolVar(&verbose, "verbose", false, "per-round metrics")
}
`)
	write(t, root, "cmd/mpcserve/main.go", "// Command mpcserve serves.\npackage main\n\nimport \"flag\"\n\nvar demo = flag.Bool(\"demo\", false, \"demo data\")\n")
	write(t, root, "cmd/mpcrun/main_test.go", "package main\n\nimport \"flag\"\n\nvar _ = flag.Bool(\"testonly\", false, \"\")\n")
	write(t, root, "README.md", strings.Join([]string{
		"Prose is not checked: `go run ./cmd/mpcrun -gone`.",
		"```bash",
		"go run ./cmd/mpcrun -p 8 -skew=zipf -verbose -h   # a comment -ignored",
		"$ go run ./cmd/mpcrun -q 'R(x,y) :- -S(x)' -p 4 | grep -v total",
		"go run ./cmd/mpcrun -query triangle -n 5000 -p 16 -skew heavy -adaptive -mpcrun",
		"go run ./cmd/mpcserve -demo -adaptive &",
		"go run ./cmd/mpcrun -testonly",
		"go run ./cmd/nosuch -p 1",
		"```",
	}, "\n"))
	problems, err := CheckFlagSamples(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:5: go run ./cmd/mpcrun: flag -query is not defined",
		"README.md:5: go run ./cmd/mpcrun: flag -n is not defined",
		"README.md:5: go run ./cmd/mpcrun: flag -adaptive is not defined",
		"README.md:5: go run ./cmd/mpcrun: flag -mpcrun is not defined",
		"README.md:6: go run ./cmd/mpcserve: flag -adaptive is not defined",
		"README.md:7: go run ./cmd/mpcrun: flag -testonly is not defined",
		"README.md:8: go run ./cmd/nosuch: no such command",
	}
	if !slices.Equal(problems, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

func TestCheckCodeRefs(t *testing.T) {
	const pkg = `// Package view maintains views.
package view

type Base struct{ Rows int }

type View struct {
	Base
	Name string
}

func New() *View { return nil }

func (v *View) Apply() {}

type Op int
`
	// A second package declaring Op makes the name ambiguous unprefixed.
	const other = `// Package audit records ops.
package audit

type Op struct{ Kind int }
`
	for _, tc := range []struct {
		name, doc, text string
		want            []string
	}{
		{"function", "README.md", "Live: `view.New`.", nil},
		{"method", "ARCHITECTURE.md", "Live: `view.View.Apply`.", nil},
		{"field", "DESIGN.md", "Live: `view.View.Name`.", nil},
		{"method shorthand", "EXPERIMENTS.md", "Live: `view.Apply()`.", nil},
		{"embedded field", "README.md", "Live: `view.View.Rows`.", nil},
		{"not internal", "README.md", "Not internal: `fmt.Println`, `r.Gone`.", nil},
		{"wildcard", "README.md", "Wildcard: `view.Op*`.", nil},
		{"prose", "README.md", "Not a code span: view.NewJoin.", nil},
		{"fenced block", "README.md", "```go\nview.Fenced()\n```", nil},
		{"unknown name", "README.md", "Intro.\n\nGone: `view.NewJoin(c)`.",
			[]string{"README.md:3: view.NewJoin: package view declares no NewJoin"}},
		{"unknown member", "ARCHITECTURE.md", "Gone: `view.Op.Apply`.",
			[]string{"ARCHITECTURE.md:1: view.Op.Apply: type Op has no method or field Apply"}},
		{"CHANGES exempt", "CHANGES.md", "Deleted `view.NewJoin`.", nil},
		{"ROADMAP exempt", "ROADMAP.md", "Deleted `view.NewJoin`.", nil},
		{"unprefixed member", "README.md", "Live: `View.Apply()`, `View.Rows`, `Op.Kind`.", nil},
		{"unprefixed not internal", "README.md", "Not internal: `Builder.Reset`.", nil},
		{"unprefixed unknown member", "EXPERIMENTS.md", "Gone: `Base.MaxRows`.",
			[]string{"EXPERIMENTS.md:1: view.Base.MaxRows: type Base has no method or field MaxRows"}},
		{"unprefixed ambiguous type", "README.md", "Gone: `Op.Apply`.",
			[]string{"README.md:1: Op.Apply: no type Op (in audit, view) has a method or field Apply"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			write(t, root, "internal/view/view.go", pkg)
			write(t, root, "internal/audit/audit.go", other)
			write(t, root, tc.doc, tc.text)
			problems, err := CheckCodeRefs(root)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(problems, tc.want) {
				t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

func TestRepoIsClean(t *testing.T) {
	// The gate CI runs, run as a test too: the repo's own docs and
	// package comments must stay clean.
	root := repoRoot(t)
	if problems, err := CheckMarkdown(root); err != nil || len(problems) != 0 {
		t.Errorf("CheckMarkdown: err=%v problems=%v", err, problems)
	}
	if problems, err := CheckPackageDocs(root); err != nil || len(problems) != 0 {
		t.Errorf("CheckPackageDocs: err=%v problems=%v", err, problems)
	}
	if problems, err := CheckFlagSamples(root); err != nil || len(problems) != 0 {
		t.Errorf("CheckFlagSamples: err=%v problems=%v", err, problems)
	}
	if problems, err := CheckCodeRefs(root); err != nil || len(problems) != 0 {
		t.Errorf("CheckCodeRefs: err=%v problems=%v", err, problems)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
