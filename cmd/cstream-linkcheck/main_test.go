package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Observability": "observability",
		"Static analysis & invariants (cstream-vet)": "static-analysis--invariants-cstream-vet",
		"Reproducing Table IV from the decision log": "reproducing-table-iv-from-the-decision-log",
		"HTTP surface":                                "http-surface",
		"Recipe: reading a CLCV regression":           "recipe-reading-a-clcv-regression",
		"`code` and **bold** text":                    "code-and-bold-text",
		"With [a link](https://example.com) embedded": "with-a-link-embedded",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeadingAnchorsDuplicatesAndFences(t *testing.T) {
	doc := strings.Join([]string{
		"# Title",
		"## Setup",
		"```bash",
		"# not a heading",
		"```",
		"## Setup",
		"#hashtag-not-a-heading",
	}, "\n")
	set := headingAnchors(doc)
	for _, want := range []string{"title", "setup", "setup-1"} {
		if !set[want] {
			t.Errorf("missing anchor %q in %v", want, set)
		}
	}
	if set["not-a-heading"] || set["hashtag-not-a-heading"] {
		t.Errorf("fenced or malformed heading leaked into %v", set)
	}
}

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("target.md", "# Target\n## Real Section\n")
	doc := write("doc.md", strings.Join([]string{
		"[ok file](target.md)",
		"[ok anchor](target.md#real-section)",
		"[ok self](#local)",
		"## Local",
		"[external skipped](https://example.com/nope)",
		"[missing file](gone.md)",
		"[missing anchor](target.md#no-such)",
		"```",
		"[inside fence](also-gone.md)",
		"```",
	}, "\n"))
	problems, err := checkFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("problems = %v, want exactly the two broken links", problems)
	}
	if !strings.Contains(problems[0], "missing file: gone.md") {
		t.Errorf("first problem = %q", problems[0])
	}
	if !strings.Contains(problems[1], "missing anchor: target.md#no-such") {
		t.Errorf("second problem = %q", problems[1])
	}
}
