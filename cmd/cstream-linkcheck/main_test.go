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
	problems, err := checkFile(dir, doc)
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

func TestRepoPathSpans(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{"internal/metrics", "cmd/tool", "pkg/api", "examples/demo", "benchmark"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"internal/metrics/metrics.go", "benchmark/run.sh"} {
		if err := os.WriteFile(filepath.Join(root, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		span  string
		named bool // the span names a repository path at all
		ok    bool // and that path exists
	}{
		{"internal/metrics", true, true},
		{"internal/metrics/metrics.go", true, true},
		{"internal/metrics/metrics.go:86", true, true},
		{"internal/metrics/metrics.go:10-12", true, true},
		{"internal/metrics.RelativeError", true, true},
		{"internal/metrics/*.go", true, true},
		{"cmd/tool -flag value", true, true},
		{"pkg/api", true, true},
		{"examples/demo", true, true},
		{"benchmark/run.sh", true, true},
		{"internal/gone", true, false},
		{"internal/metrics/gone.go:3", true, false},
		{"internal/gone.Ident", true, false},
		{"internal/metrics/*_test.go", true, false},
		{"go test ./internal/...", false, false},
		{"metrics.RelativeError", false, false},
		{"./internal/metrics", false, false},
	}
	for _, c := range cases {
		p, named := repoPath(c.span)
		if named != c.named {
			t.Errorf("repoPath(%q) named = %v, want %v", c.span, named, c.named)
			continue
		}
		if named && pathExists(root, p) != c.ok {
			t.Errorf("pathExists(%q from %q) = %v, want %v", p, c.span, !c.ok, c.ok)
		}
	}
}

// A broken span is reported in a document that describes the tree, and
// ignored in a root document outside treeDocs (history, plans, other
// people's code).
func TestCheckFileRepoPaths(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal/metrics"), 0o755); err != nil {
		t.Fatal(err)
	}
	body := "`internal/metrics.RelativeError` and `internal/pipesim`\n```\n`internal/fenced`\n```\n"
	for _, name := range []string{"DESIGN.md", "CHANGES.md", "ROADMAP.md", "sub/README.md"} {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		problems, err := checkFile(root, p)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if name == "DESIGN.md" || name == "sub/README.md" {
			want = 1
		}
		if len(problems) != want {
			t.Fatalf("%s: problems = %v, want %d", name, problems, want)
		}
		if want == 1 && !strings.Contains(problems[0], ":1: missing path: internal/pipesim") {
			t.Errorf("%s: problem = %q", name, problems[0])
		}
	}
}
