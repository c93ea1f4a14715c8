// Command doccheck is the documentation gate for the CI docs lane.
// It enforces four invariants that rot silently without a check:
//
//  1. Every relative markdown link in the repo's own documentation
//     resolves — the file exists, and when the link carries a
//     #fragment, a heading with that GitHub-style anchor slug exists
//     in the target file. External (http/https/mailto) links are not
//     fetched; CI must not depend on the network.
//  2. Every Go package in the repo has a package-level doc comment
//     (checked with go/parser, the same source of truth godoc uses).
//  3. Every -flag on a `go run ./cmd/<tool>` line in a fenced code
//     block is a flag <tool>'s main package defines (read with
//     go/parser from its flag definitions).
//  4. Every `pkg.Name` or `pkg.Type.Method` code span in README.md,
//     ARCHITECTURE.md, DESIGN.md and EXPERIMENTS.md names a declaration
//     that exists, when pkg is a package under internal/. CHANGES.md
//     and ROADMAP.md are exempt: they name deleted APIs on purpose.
//
// Usage:
//
//	doccheck [-root dir]
//
// Retrieval-artifact files (PAPER.md, PAPERS.md, SNIPPETS.md) are
// skipped as link and sample *sources*: they quote external material
// we do not own. They still count as link *targets*.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	for _, check := range []func(string) ([]string, error){CheckMarkdown, CheckPackageDocs, CheckFlagSamples, CheckCodeRefs} {
		found, err := check(*root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(1)
		}
		problems = append(problems, found...)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}
