package telemetry

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/dataset"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	t0 := time.Now()
	r.Record("read", 0, t0, t0.Add(5*time.Millisecond))
	r.Record("write", 0, t0.Add(5*time.Millisecond), t0.Add(8*time.Millisecond))
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Stage != "read" {
		t.Fatalf("order: %+v", spans)
	}
	if r.Makespan() != 8*time.Millisecond {
		t.Fatalf("makespan = %v", r.Makespan())
	}
	totals := r.StageTotals()
	if totals["read"] != 5*time.Millisecond || totals["write"] != 3*time.Millisecond {
		t.Fatalf("totals = %v", totals)
	}
	r.Reset()
	if len(r.Spans()) != 0 || r.Makespan() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			now := time.Now()
			r.Record("s", i, now, now.Add(time.Microsecond))
		}(i)
	}
	wg.Wait()
	if len(r.Spans()) != 50 {
		t.Fatalf("spans = %d", len(r.Spans()))
	}
}

func TestRenderOutput(t *testing.T) {
	var r Recorder
	t0 := time.Now()
	r.Record("encode", 1, t0, t0.Add(time.Millisecond))
	var buf bytes.Buffer
	r.Render(&buf, 40)
	out := buf.String()
	if !strings.Contains(out, "encode[slice 1]") || !strings.Contains(out, "#") {
		t.Fatalf("render output:\n%s", out)
	}
	var empty Recorder
	buf.Reset()
	empty.Render(&buf, 40)
	if !strings.Contains(buf.String(), "no spans") {
		t.Fatal("empty render message missing")
	}
}

// Regression: spans shorter than one column — including spans pinned to the
// very right edge of the chart — must still occupy exactly one cell, and no
// bar may overflow the |...| box.
func TestRenderSubColumnSpans(t *testing.T) {
	const width = 40
	var r Recorder
	t0 := time.Unix(0, 0)
	total := 40 * time.Millisecond
	// A full-length reference span plus three sub-column spans at the start,
	// middle, and exact end of the makespan.
	r.Record("full", 0, t0, t0.Add(total))
	r.Record("head", 0, t0, t0.Add(time.Microsecond))
	r.Record("mid", 0, t0.Add(total/2), t0.Add(total/2+time.Microsecond))
	r.Record("tail", 0, t0.Add(total), t0.Add(total))
	var buf bytes.Buffer
	r.Render(&buf, width)
	for _, line := range strings.Split(buf.String(), "\n") {
		open := strings.IndexByte(line, '|')
		if open < 0 {
			continue
		}
		end := strings.IndexByte(line[open+1:], '|')
		if end != width {
			t.Fatalf("bar box is %d columns, want %d:\n%s", end, width, line)
		}
		bar := line[open+1 : open+1+end]
		if !strings.Contains(bar, "#") {
			t.Fatalf("sub-column span lost its cell:\n%s", line)
		}
	}
	out := buf.String()
	// The tail span starts at offset == width; it must land in the last
	// column, not past the box.
	for _, row := range []string{"head", "mid", "tail"} {
		if !strings.Contains(out, row+"[slice 0]") {
			t.Fatalf("missing row %q:\n%s", row, out)
		}
	}
}

// Stage totals are rendered in sorted stage order, keeping the report
// deterministic run to run.
func TestRenderTotalsSorted(t *testing.T) {
	var r Recorder
	t0 := time.Unix(0, 0)
	for _, stage := range []string{"zeta", "alpha", "mid"} {
		r.Record(stage, 0, t0, t0.Add(time.Millisecond))
	}
	var buf bytes.Buffer
	r.Render(&buf, 40)
	out := buf.String()
	ia := strings.Index(out, "total alpha")
	im := strings.Index(out, "total mid")
	iz := strings.Index(out, "total zeta")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("totals not sorted (alpha=%d mid=%d zeta=%d):\n%s", ia, im, iz, out)
	}
}

// The pipeline must emit one span per slice, named after the algorithm.
func TestPipelineEmitsSpans(t *testing.T) {
	var r Recorder
	alg := compress.NewTcomp32()
	b := dataset.NewRovio(1).Batch(0, 32*1024)
	res, err := compress.RunPipelineContext(context.Background(), alg, b, 3, []int{2, 2}, r.Record)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 3 {
		t.Fatalf("segments = %d", len(res.Segments))
	}
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	slices := map[int]bool{}
	for _, s := range spans {
		slices[s.Slice] = true
		if s.Stage != alg.Name() {
			t.Fatalf("span stage = %q, want %q", s.Stage, alg.Name())
		}
		if s.Duration() < 0 {
			t.Fatal("negative span")
		}
	}
	if len(slices) != 3 {
		t.Fatalf("slices = %v", slices)
	}
}
