package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one unit of recorded work. A Recorder collects the wall-clock
// execution timeline of the functional pipeline: one span per (stage, slice)
// unit of work, where the slice executor names the stage after the
// algorithm. Render turns it into a Gantt-style text report, and ChromeTrace
// into Chrome trace-event JSON.
type Span struct {
	// Stage names the pipeline stage.
	Stage string
	// Slice is the data-parallel slice index the span processed.
	Slice int
	// Start and End bound the span.
	Start, End time.Time
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Recorder collects spans concurrently; the zero value is ready to use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Record appends one span; safe for concurrent use. Its signature matches
// compress.StageObserver so a Recorder plugs directly into RunPipeline.
func (r *Recorder) Record(stage string, slice int, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, Span{Stage: stage, Slice: slice, Start: start, End: end})
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans, ordered by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Reset discards recorded spans.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// StageTotals sums busy time per stage.
func (r *Recorder) StageTotals() map[string]time.Duration {
	totals := map[string]time.Duration{}
	for _, s := range r.Spans() {
		totals[s.Stage] += s.Duration()
	}
	return totals
}

// Makespan returns the wall-clock extent from the first start to the last
// end (zero when nothing was recorded).
func (r *Recorder) Makespan() time.Duration {
	spans := r.Spans()
	if len(spans) == 0 {
		return 0
	}
	first := spans[0].Start
	last := spans[0].End
	for _, s := range spans {
		if s.End.After(last) {
			last = s.End
		}
	}
	return last.Sub(first)
}

// Render writes a text Gantt chart: one row per (stage, slice), with bars
// proportional to time within the makespan.
func (r *Recorder) Render(w io.Writer, width int) {
	spans := r.Spans()
	if len(spans) == 0 {
		fmt.Fprintln(w, "trace: no spans recorded")
		return
	}
	if width < 20 {
		width = 60
	}
	first := spans[0].Start
	total := r.Makespan()
	if total <= 0 {
		total = time.Nanosecond
	}
	scale := func(t time.Time) int {
		off := int(float64(t.Sub(first)) / float64(total) * float64(width))
		if off < 0 {
			off = 0
		}
		if off > width {
			off = width
		}
		return off
	}
	fmt.Fprintf(w, "pipeline trace: %d spans over %v\n", len(spans), total.Round(time.Microsecond))
	for _, s := range spans {
		lo, hi := scale(s.Start), scale(s.End)
		// A span shorter than one column still occupies one cell, and a span
		// starting at the right edge is pulled into the last column so the bar
		// never overflows the |...| box.
		if lo >= width {
			lo = width - 1
		}
		if hi <= lo {
			hi = lo + 1
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo)
		fmt.Fprintf(w, "  %-28s |%-*s| %8v\n",
			fmt.Sprintf("%s[slice %d]", s.Stage, s.Slice), width, bar,
			s.Duration().Round(time.Microsecond))
	}
	totals := r.StageTotals()
	stages := make([]string, 0, len(totals))
	for stage := range totals {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		fmt.Fprintf(w, "  total %-22s %v\n", stage, totals[stage].Round(time.Microsecond))
	}
}
