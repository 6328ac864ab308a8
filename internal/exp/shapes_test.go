package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// Shape assertions for the artifacts not covered in exp_test.go.

// Fig. 3: the emitted roofline series must show the little-core dip and the
// big core's monotone climb; the tcomp32 step markers must appear.
func TestFig3Shape(t *testing.T) {
	tab, err := runner(t).Run("fig3")
	if err != nil {
		t.Fatal(err)
	}
	littleCol := colIndex(t, tab, "eta(little)")
	bigCol := colIndex(t, tab, "eta(big)")
	kCol := colIndex(t, tab, "kappa")
	dipSeen := false
	prevLittle, prevBig := 0.0, 0.0
	for r := range tab.Rows {
		k := cell(t, tab, r, kCol)
		little := cell(t, tab, r, littleCol)
		big := cell(t, tab, r, bigCol)
		if big+1e-9 < prevBig {
			t.Fatalf("big η dipped at κ=%.0f", k)
		}
		if little < prevLittle && k > 30 && k < 70 {
			dipSeen = true
		}
		prevLittle, prevBig = little, big
		// Asymmetric computation: big ≥ little everywhere.
		if big < little {
			t.Fatalf("little outpaced big at κ=%.0f", k)
		}
	}
	if !dipSeen {
		t.Fatal("little-core dip not visible in fig3 series")
	}
	markers := 0
	for _, n := range tab.Notes {
		if strings.Contains(n, "tcomp32 step") {
			markers++
		}
	}
	if markers != 3 {
		t.Fatalf("expected 3 step markers, got %d", markers)
	}
}

// Table II shape: the measured latencies must order c0 < c1 < c2 and stay
// within 15% of the true values.
func TestTable2Shape(t *testing.T) {
	tab, err := runner(t).Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	eff := colIndex(t, tab, "effective µs/B (pipeline)")
	c0 := cell(t, tab, 0, eff)
	c1 := cell(t, tab, 1, eff)
	c2 := cell(t, tab, 2, eff)
	if !(c0 < c1 && c1 < c2) {
		t.Fatalf("path ordering violated: %f %f %f", c0, c1, c2)
	}
	if r := c2 / c1; r < 2.5 || r > 3.3 {
		t.Fatalf("c2/c1 = %f, want ≈2.95", r)
	}
}

// Fig. 5 shape: private dictionaries must cut both energy (paper: 51%) and
// latency (paper: 82%) while conceding a little compression ratio.
func TestFig5Shape(t *testing.T) {
	tab, err := runner(t).Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	e := colIndex(t, tab, "energy (µJ/B)")
	l := colIndex(t, tab, "latency (µs/B)")
	ratio := colIndex(t, tab, "compression ratio")
	shareE, shareL, shareR := cell(t, tab, 0, e), cell(t, tab, 0, l), cell(t, tab, 0, ratio)
	privE, privL, privR := cell(t, tab, 1, e), cell(t, tab, 1, l), cell(t, tab, 1, ratio)
	if privE >= shareE*0.7 {
		t.Fatalf("private energy %.3f not ≥30%% below shared %.3f", privE, shareE)
	}
	if privL >= shareL*0.4 {
		t.Fatalf("private latency %.2f not ≥60%% below shared %.2f", privL, shareL)
	}
	if privR < shareR {
		t.Fatal("private dictionaries must not compress better than shared")
	}
}

// Fig. 15 shape: CStream stays the cheapest at every frequency setting, and
// the lowest frequency is not the little-core energy optimum.
func TestFig15Shape(t *testing.T) {
	tab, err := runner(t).Run("fig15")
	if err != nil {
		t.Fatal(err)
	}
	cs := colIndex(t, tab, core.MechCStream)
	for r := range tab.Rows {
		base := cell(t, tab, r, cs)
		for c := 1; c <= 6; c++ {
			if c != cs && cell(t, tab, r, c) < base*0.985 {
				t.Errorf("row %s: %s beat CStream", tab.Rows[r][0], tab.Columns[c])
			}
		}
	}
	lo := colIndex(t, tab, core.MechLO)
	first, last := cell(t, tab, 0, lo), cell(t, tab, len(tab.Rows)-1, lo)
	if last <= first {
		t.Fatalf("LO at the lowest frequency (%.3f) should cost more than at nominal (%.3f)", last, first)
	}
}

// Extension experiments: both run and show the expected qualitative facts.
func TestExtAlgorithmsShape(t *testing.T) {
	tab, err := runner(t).Run("ext-algs")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 7 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	// Every cell must parse as "<energy>/<ratio>" with positive energy.
	for r := range tab.Rows {
		for c := 1; c < len(tab.Columns); c++ {
			parts := strings.Split(tab.Rows[r][c], "/")
			if len(parts) != 2 {
				t.Fatalf("cell %q malformed", tab.Rows[r][c])
			}
		}
	}
}

func TestExtPlatformsShape(t *testing.T) {
	tab, err := runner(t).Run("ext-platforms")
	if err != nil {
		t.Fatal(err)
	}
	cs := colIndex(t, tab, core.MechCStream)
	bo := colIndex(t, tab, core.MechBO)
	platforms := map[string]bool{}
	for r := range tab.Rows {
		platforms[tab.Rows[r][0]] = true
		if cell(t, tab, r, cs) > cell(t, tab, r, bo) {
			t.Errorf("row %d: CStream should beat BO on %s", r, tab.Rows[r][0])
		}
	}
	if !platforms["rk3399"] || !platforms["jetson-tx2"] {
		t.Fatalf("platforms covered: %v", platforms)
	}
}

// CSV output: parses back with the same cell count and quotes commas.
func TestWriteCSV(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Columns: []string{"a", "b,with comma"},
	}
	tab.AddRow("1", `say "hi"`)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != `a,"b,with comma"` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `1,"say ""hi"""` {
		t.Fatalf("row = %q", lines[1])
	}
}

// Fig. 10's CLCV columns: RR/BO/LO must violate under the tightest L_set.
func TestFig10TightConstraintViolations(t *testing.T) {
	tab, err := runner(t).Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []string{"RR CLCV", "LO CLCV"} {
		c := colIndex(t, tab, mech)
		if cell(t, tab, 0, c) == 0 {
			t.Errorf("%s should violate at the tightest L_set", mech)
		}
	}
	csv := colIndex(t, tab, "CStream CLCV")
	for r := range tab.Rows {
		if cell(t, tab, r, csv) != 0 {
			t.Errorf("CStream violated at L_set row %s", tab.Rows[r][0])
		}
	}
}

// The statistics-triggered controller must strictly dominate PID on
// violation count for the Fig. 9 shift.
func TestExtAdaptiveShape(t *testing.T) {
	tab, err := runner(t).Run("ext-adapt")
	if err != nil {
		t.Fatal(err)
	}
	pidV := colIndex(t, tab, "PID violated")
	statsV := colIndex(t, tab, "stats violated")
	pidCount, statsCount := 0, 0
	for r := range tab.Rows {
		if tab.Rows[r][pidV] == "true" {
			pidCount++
		}
		if tab.Rows[r][statsV] == "true" {
			statsCount++
		}
	}
	if pidCount == 0 {
		t.Fatal("PID should violate during calibration")
	}
	if statsCount >= pidCount {
		t.Fatalf("stats controller (%d violations) should beat PID (%d)", statsCount, pidCount)
	}
}
