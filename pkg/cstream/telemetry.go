package cstream

import (
	"context"
	"io"

	"repro/internal/telemetry"
)

// Telemetry is an opt-in observability handle: attach one with WithTelemetry
// and every Session opened with it records metrics,
// scheduling decisions, and pipeline execution spans into it. The zero-cost
// default is no telemetry at all — without WithTelemetry, instrumented code
// paths reduce to a nil check.
//
// One Telemetry may be shared by several Sessions; its methods are safe for
// concurrent use with ongoing recording. See OBSERVABILITY.md at the
// repository root for the metric catalog, the decision-log schema, and how to
// read the exported traces.
type Telemetry struct {
	sink *telemetry.Sink
}

// NewTelemetry builds an enabled, empty telemetry handle.
func NewTelemetry() *Telemetry {
	return &Telemetry{sink: telemetry.New()}
}

// MetricsJSON renders the current metrics snapshot as deterministic, indented
// JSON — the same payload the /metrics endpoint serves.
func (t *Telemetry) MetricsJSON() ([]byte, error) {
	return t.sink.MetricsJSON()
}

// WriteDecisionLog writes the scheduling-decision log as JSON Lines: one
// decision object per line, in the order the decisions were made.
func (t *Telemetry) WriteDecisionLog(w io.Writer) error {
	return t.sink.Decisions().WriteJSONL(w)
}

// DecisionCount returns the number of scheduling decisions recorded so far.
func (t *Telemetry) DecisionCount() int {
	return t.sink.Decisions().Len()
}

// ChromeTraceJSON exports recorded pipeline spans and scheduling decisions as
// Chrome trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
func (t *Telemetry) ChromeTraceJSON() ([]byte, error) {
	return t.sink.ChromeTraceJSON()
}

// Serve exposes the debug HTTP surface on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns the bound address. The server runs in the
// background and shuts down when ctx is cancelled. Endpoints: /metrics,
// /debug/decisions, /debug/trace, and the standard /debug/pprof profiles.
func (t *Telemetry) Serve(ctx context.Context, addr string) (string, error) {
	return t.sink.Serve(ctx, addr)
}

// WithTelemetry attaches the telemetry handle to the Session being opened. A
// nil handle keeps telemetry disabled.
func WithTelemetry(t *Telemetry) Option {
	return func(c *config) { c.telemetry = t }
}
