package telemetry

import (
	"encoding/json"
	"fmt"
)

// The Chrome trace-event format (the JSON consumed by Perfetto and
// chrome://tracing) models a trace as a flat event array: "X" complete
// events carry a ts/dur pair, "i" instant events a ts, and "M" metadata
// events name processes and threads. This exporter maps the functional
// pipeline's (stage, slice) spans onto one thread row each, and scheduling
// decisions onto a dedicated "scheduler" row as instant events.

// chromeEvent is one element of the traceEvents array. Field names follow
// the trace-event format specification, not Go conventions.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTraceDoc is the top-level JSON object.
type chromeTraceDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// chromePID is the single synthetic process all rows belong to.
const chromePID = 1

// schedulerTID is the reserved thread row carrying decision instants.
const schedulerTID = 0

// ChromeTrace renders pipeline spans and scheduling decisions as Chrome
// trace-event JSON. Span timestamps are microseconds relative to the
// earliest span start; each (stage, slice) pair becomes its own named thread
// row in first-appearance order, so the Perfetto timeline reads like the
// text Gantt chart of Recorder.Render. Decisions carry no wall-clock
// time, so they are placed on the scheduler row at one microsecond per
// sequence number — their ordering, not their horizontal position, is the
// signal. The output is deterministic for given inputs.
func ChromeTrace(spans []Span, decisions []Decision) ([]byte, error) {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: chromePID, TID: schedulerTID,
		Args: map[string]any{"name": "cstream"},
	}, {
		Name: "thread_name", Ph: "M", PID: chromePID, TID: schedulerTID,
		Args: map[string]any{"name": "scheduler"},
	}}

	for _, d := range decisions {
		d := d
		args := map[string]any{
			"kind":        d.Kind,
			"mechanism":   d.Mechanism,
			"workload":    d.Workload,
			"plan":        fmt.Sprint(d.Plan),
			"feasible":    d.Feasible,
			"cache_hit":   d.CacheHit,
			"nodes":       d.NodesExplored,
			"search_us":   d.SearchMicros,
			"predicted_l": d.PredictedL,
			"predicted_e": d.PredictedE,
		}
		if d.MeasuredL > 0 || d.MeasuredE > 0 {
			args["measured_l"] = d.MeasuredL
			args["measured_e"] = d.MeasuredE
		}
		events = append(events, chromeEvent{
			Name: d.Kind, Cat: "scheduling", Ph: "i", Scope: "g",
			PID: chromePID, TID: schedulerTID, TS: float64(d.Seq),
			Args: args,
		})
	}

	if len(spans) > 0 {
		// Spans() is already start-ordered; rows are assigned in that order.
		t0 := spans[0].Start
		type rowKey struct {
			stage string
			slice int
		}
		rows := map[rowKey]int{}
		nextTID := schedulerTID + 1
		for _, s := range spans {
			key := rowKey{s.Stage, s.Slice}
			tid, ok := rows[key]
			if !ok {
				tid = nextTID
				nextTID++
				rows[key] = tid
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", PID: chromePID, TID: tid,
					Args: map[string]any{"name": fmt.Sprintf("%s [slice %d]", s.Stage, s.Slice)},
				})
			}
			dur := float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3
			events = append(events, chromeEvent{
				Name: s.Stage, Cat: "pipeline", Ph: "X",
				PID: chromePID, TID: tid,
				TS:   float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
				Dur:  &dur,
				Args: map[string]any{"slice": s.Slice},
			})
		}
	}

	return json.MarshalIndent(chromeTraceDoc{
		DisplayTimeUnit: "ms",
		TraceEvents:     events,
	}, "", "  ")
}
