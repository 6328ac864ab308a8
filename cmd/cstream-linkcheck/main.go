// Command cstream-linkcheck validates the repository's Markdown cross
// references offline: every relative link must point at an existing file,
// and every fragment (`FILE.md#anchor` or `#anchor`) must match a heading
// anchor in the target document, computed with GitHub's slug rules.
// External http(s)/mailto links are skipped — the CI runner is offline and
// their liveness is not this tool's business.
//
// Backticked repository paths are references too: in the documents that
// describe this tree, a code span that starts with internal/, cmd/, pkg/,
// examples/ or benchmark/ must name an existing file or directory, relative
// to the current directory (the repository root). `dir/file.go:N` names
// dir/file.go, and `dir/pkg.Ident` names the package directory dir/pkg.
// Those documents are the five in treeDocs and every document below the
// root; the other root documents hold history (CHANGES.md), plans
// (ROADMAP.md) or other people's work (PAPER.md, PAPERS.md, SNIPPETS.md),
// whose paths need not exist here.
//
// Usage:
//
//	cstream-linkcheck README.md DESIGN.md OBSERVABILITY.md
//	cstream-linkcheck          # every *.md under the current directory
//
// Exit status 1 if any reference is broken, listing file:line: target.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		var err error
		files, err = findMarkdown(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cstream-linkcheck: %v\n", err)
			os.Exit(1)
		}
	}
	var broken int
	for _, f := range files {
		problems, err := checkFile(".", f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cstream-linkcheck: %v\n", err)
			os.Exit(1)
		}
		for _, p := range problems {
			fmt.Println(p)
			broken++
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "cstream-linkcheck: %d broken reference(s)\n", broken)
		os.Exit(1)
	}
}

func findMarkdown(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Fixture trees and VCS internals are not documentation.
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// linkRe extracts inline-link targets: the (...) part of [text](target).
// Image links share the syntax. Targets never contain ')' in this repo.
var linkRe = regexp.MustCompile(`\]\(([^()\s]+)\)`)

// codeSpanRe extracts inline code spans: the text between single backticks.
var codeSpanRe = regexp.MustCompile("`([^`]+)`")

// lineSuffixRe matches a trailing line reference: :N, :N-M or :N,M.
var lineSuffixRe = regexp.MustCompile(`:\d+([-,]\d+)*$`)

// repoPathPrefixes are the top-level directories whose backticked paths are
// checked.
var repoPathPrefixes = []string{"internal/", "cmd/", "pkg/", "examples/", "benchmark/"}

// treeDocs are the root documents whose backticked paths are checked.
var treeDocs = map[string]bool{
	"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true,
	"OBSERVABILITY.md": true, "STORAGE.md": true,
}

// describesTree reports whether the document at path, relative to root,
// describes this tree: one of treeDocs, or any document below the root.
func describesTree(root, path string) bool {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return false
	}
	return filepath.Dir(rel) != "." || treeDocs[rel]
}

// repoPath returns the repository path a code span names, and false when the
// span does not start with one of repoPathPrefixes. Only the span's first
// word counts, so `cmd/cstream-bench -run all` names cmd/cstream-bench.
func repoPath(span string) (string, bool) {
	p, _, _ := strings.Cut(span, " ")
	for _, prefix := range repoPathPrefixes {
		if strings.HasPrefix(p, prefix) {
			return lineSuffixRe.ReplaceAllString(p, ""), true
		}
	}
	return "", false
}

// pathExists reports whether p, relative to root, names (or, as a glob,
// matches) a file or directory, or is a package-qualified identifier
// dir/pkg.Ident whose dir/pkg exists.
func pathExists(root, p string) bool {
	full := filepath.Join(root, filepath.FromSlash(p))
	if matches, _ := filepath.Glob(full); len(matches) > 0 {
		return true
	}
	dir, base := filepath.Split(full)
	pkg, _, ok := strings.Cut(base, ".")
	st, err := os.Stat(filepath.Join(dir, pkg))
	return ok && pkg != "" && err == nil && st.IsDir()
}

// checkFile returns one formatted problem line per broken reference in path;
// backticked repository paths resolve against root.
func checkFile(root, path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	dir := filepath.Dir(path)
	checkPaths := describesTree(root, path)
	// anchors memoizes the heading-slug set per referenced markdown file.
	anchors := map[string]map[string]bool{}
	anchorsOf := func(mdPath string) (map[string]bool, error) {
		if set, ok := anchors[mdPath]; ok {
			return set, nil
		}
		b, err := os.ReadFile(mdPath)
		if err != nil {
			return nil, err
		}
		set := headingAnchors(string(b))
		anchors[mdPath] = set
		return set, nil
	}

	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
			if p, ok := repoPath(m[1]); ok && checkPaths && !pathExists(root, p) {
				problems = append(problems, fmt.Sprintf("%s:%d: missing path: %s", path, i+1, m[1]))
			}
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if skippable(target) {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			resolved := path
			if file != "" {
				resolved = filepath.Join(dir, file)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: missing file: %s", path, i+1, target))
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				continue // fragments into non-markdown files are not checkable
			}
			set, err := anchorsOf(resolved)
			if err != nil {
				return nil, err
			}
			if !set[frag] {
				problems = append(problems, fmt.Sprintf("%s:%d: missing anchor: %s", path, i+1, target))
			}
		}
	}
	return problems, nil
}

// skippable reports targets this offline checker does not validate.
func skippable(target string) bool {
	for _, prefix := range []string{"http://", "https://", "mailto:", "ftp://"} {
		if strings.HasPrefix(target, prefix) {
			return true
		}
	}
	return false
}

// headingAnchors collects the GitHub anchor slug of every ATX heading
// outside code fences, including the -1, -2… suffixes GitHub appends to
// duplicate slugs.
func headingAnchors(doc string) map[string]bool {
	set := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if text == line || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue // not an ATX heading ("#hashtag" or no space after #)
		}
		slug := slugify(strings.TrimSpace(text))
		if n := seen[slug]; n > 0 {
			set[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			set[slug] = true
		}
		seen[slug]++
	}
	return set
}

// slugify converts heading text to a GitHub anchor: markdown emphasis and
// code markers drop, letters lowercase, spaces become hyphens, everything
// that is not a letter, digit, hyphen or underscore is removed.
func slugify(heading string) string {
	// Inline links keep their text: [text](url) → text.
	heading = regexp.MustCompile(`\[([^\]]*)\]\([^)]*\)`).ReplaceAllString(heading, "$1")
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_':
			b.WriteRune(r)
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}
