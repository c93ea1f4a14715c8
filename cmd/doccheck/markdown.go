package main

import (
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

// skipSources are markdown files whose links we do not own: retrieval
// artifacts quoting external material. They are never scanned for
// outgoing links but remain valid link targets.
var skipSources = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
}

// linkRe matches the target of an inline markdown link or image,
// `[text](target)` / `![alt](target)`, with an optional title.
var linkRe = regexp.MustCompile(`\]\(\s*<?([^)<>\s]+)>?(?:\s+"[^"]*")?\s*\)`)

// inlineCodeRe matches `code spans`, which may legitimately contain
// bracket-paren sequences that are not links.
var inlineCodeRe = regexp.MustCompile("`[^`]*`")

// CheckMarkdown validates every relative link in the repository's own
// markdown files: the target file must exist, and a #fragment must
// match a GitHub-style heading anchor in the target. Returns one
// human-readable problem string per broken link.
func CheckMarkdown(root string) ([]string, error) {
	files, err := markdownFiles(root)
	if err != nil {
		return nil, err
	}
	anchorCache := map[string]map[string]bool{}
	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		for i, line := range linkLines(string(data)) {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				if p := checkLink(root, f, m[1], anchorCache); p != "" {
					problems = append(problems, fmt.Sprintf("%s:%d: %s", rel, i+1, p))
				}
			}
		}
	}
	return problems, nil
}

// markdownFiles lists, sorted, the repository's own markdown files:
// every .md file outside .git except the retrieval artifacts.
func markdownFiles(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") && !skipSources[d.Name()] {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return files, err
}

// fenced reports, per line, whether it is a code fence or inside a
// fenced code block.
func fenced(lines []string) []bool {
	in := make([]bool, len(lines))
	inFence := false
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			in[i] = true
			continue
		}
		in[i] = inFence
	}
	return in
}

// linkLines returns the file's lines with fenced code blocks and
// inline code spans blanked out, so transcripts and code samples are
// not scanned for links. Line numbering is preserved.
func linkLines(src string) []string {
	lines := strings.Split(src, "\n")
	for i, in := range fenced(lines) {
		if in {
			lines[i] = ""
		} else {
			lines[i] = inlineCodeRe.ReplaceAllString(lines[i], "")
		}
	}
	return lines
}

// checkLink validates one link target found in file. Returns "" when
// the link is fine or out of scope (absolute URLs).
func checkLink(root, file, target string, anchorCache map[string]map[string]bool) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return "" // external; CI must not depend on the network
	}
	path, fragment, _ := strings.Cut(target, "#")
	if dec, err := url.PathUnescape(path); err == nil {
		path = dec
	}
	resolved := file
	if path != "" {
		if filepath.IsAbs(path) || strings.HasPrefix(path, "/") {
			resolved = filepath.Join(root, path)
		} else {
			resolved = filepath.Join(filepath.Dir(file), path)
		}
		if _, err := os.Stat(resolved); err != nil {
			return fmt.Sprintf("broken link %q: %s does not exist", target, path)
		}
	}
	if fragment == "" {
		return ""
	}
	if !strings.EqualFold(filepath.Ext(resolved), ".md") {
		return "" // anchors into non-markdown files are not checkable
	}
	anchors, ok := anchorCache[resolved]
	if !ok {
		data, err := os.ReadFile(resolved)
		if err != nil {
			return fmt.Sprintf("broken link %q: %v", target, err)
		}
		anchors = headingAnchors(string(data))
		anchorCache[resolved] = anchors
	}
	if !anchors[strings.ToLower(fragment)] {
		return fmt.Sprintf("broken link %q: no heading with anchor #%s", target, fragment)
	}
	return ""
}

// headingAnchors collects the GitHub-style anchor slugs of every ATX
// heading in the document, with -1, -2, ... suffixes for duplicates.
func headingAnchors(src string) map[string]bool {
	anchors := map[string]bool{}
	seen := map[string]int{}
	lines := strings.Split(src, "\n")
	for i, in := range fenced(lines) {
		trimmed := strings.TrimSpace(lines[i])
		if in || !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		if text == trimmed || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue // not an ATX heading (e.g. "#!/bin/sh" or no space)
		}
		s := slugify(text)
		if n := seen[s]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			anchors[s] = true
		}
		seen[s]++
	}
	return anchors
}

// slugify approximates GitHub's heading-to-anchor algorithm: lowercase,
// drop punctuation (including markdown formatting characters), turn
// spaces into hyphens, keep hyphens and underscores.
func slugify(heading string) string {
	heading = strings.TrimSpace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
