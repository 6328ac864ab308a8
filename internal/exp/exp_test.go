package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// sharedRunner is reused across tests, so the planner is built once.
var sharedRunner *Runner

func runner(t *testing.T) *Runner {
	t.Helper()
	if sharedRunner == nil {
		r, err := NewRunner(FastConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedRunner = r
	}
	return sharedRunner
}

func TestIDsCoverAllPaperArtifacts(t *testing.T) {
	want := []string{
		"fig3", "table2", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table4", "table5",
		"ext-algs", "ext-platforms", "ext-adapt", "ext-policies",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("unexpected extra experiments: %v", IDs())
	}
}

func TestTitleLookup(t *testing.T) {
	if _, ok := Title("fig7"); !ok {
		t.Fatal("fig7 title missing")
	}
	if _, ok := Title("fig99"); ok {
		t.Fatal("fig99 should not exist")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := runner(t).Run("fig99"); err == nil {
		t.Fatal("expected error")
	}
}

// results_full.txt is the recorded output of `cstream-bench -run all`. Its
// sections must be exactly the registered experiments, in IDs order, so a
// driver added or deleted without regenerating the file fails here.
func TestResultsFileMatchesIDs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ := strings.Cut(rest, ":")
			got = append(got, id)
		}
	}
	if !slices.Equal(got, IDs()) {
		t.Fatalf("results_full.txt has sections %v, want %v; regenerate it with cstream-bench -run all", got, IDs())
	}
}

// Every experiment must run to completion and render non-empty output.
func TestAllExperimentsRun(t *testing.T) {
	r := runner(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := r.Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: no rows", id)
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			if buf.Len() == 0 {
				t.Fatalf("%s: empty render", id)
			}
		})
	}
}

// cell parses a numeric cell, ignoring a trailing violation marker.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	raw := strings.TrimSuffix(tab.Rows[row][col], "*")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

// colIndex finds a column by header.
func colIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s: column %q not found in %v", tab.ID, name, tab.Columns)
	return -1
}

// Fig. 7 shape: CStream's mean energy is the minimum of every row.
func TestFig7CStreamWins(t *testing.T) {
	tab, err := runner(t).Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	cs := colIndex(t, tab, core.MechCStream)
	for r := range tab.Rows {
		base := cell(t, tab, r, cs)
		if strings.HasSuffix(tab.Rows[r][cs], "*") {
			t.Errorf("row %s: CStream itself violates", tab.Rows[r][0])
		}
		for c := 1; c < len(tab.Columns); c++ {
			if c == cs {
				continue
			}
			// Cells marked * grossly violate the latency constraint: their
			// energy is not comparable (they escape the QoS trade-off).
			if strings.HasSuffix(tab.Rows[r][c], "*") {
				continue
			}
			// Mechanisms whose random draw lands on CStream's plan tie with
			// it up to meter noise; allow 1.5% before calling it a loss.
			if other := cell(t, tab, r, c); other < base*0.985 {
				t.Errorf("row %s: %s (%.3f) beat CStream (%.3f)",
					tab.Rows[r][0], tab.Columns[c], other, base)
			}
		}
	}
}

// Fig. 8 shape: CStream's CLCV is zero everywhere.
func TestFig8CStreamZero(t *testing.T) {
	tab, err := runner(t).Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	cs := colIndex(t, tab, core.MechCStream)
	for r := range tab.Rows {
		if v := cell(t, tab, r, cs); v != 0 {
			t.Errorf("row %s: CStream CLCV = %.3f", tab.Rows[r][0], v)
		}
	}
}

// Fig. 9 shape: regulated run recovers (no violations at the tail), the
// unregulated run keeps violating, and post-shift energy is higher.
func TestFig9Shape(t *testing.T) {
	tab, err := runner(t).Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	n := len(tab.Rows)
	violWith := colIndex(t, tab, "violated w/ reg")
	violWithout := colIndex(t, tab, "violated w/o reg")
	for r := n - 3; r < n; r++ {
		if tab.Rows[r][violWith] != "false" {
			t.Errorf("regulated batch %s still violating", tab.Rows[r][0])
		}
		if tab.Rows[r][violWithout] != "true" {
			t.Errorf("unregulated batch %s should violate", tab.Rows[r][0])
		}
	}
	eWith := colIndex(t, tab, "E w/ reg (µJ/B)")
	if cell(t, tab, n-1, eWith) <= cell(t, tab, 1, eWith) {
		t.Error("post-shift plan should cost more energy")
	}
}

// Fig. 10 shape: CStream energy is non-increasing as L_set loosens, and OS
// energy stays ~constant.
func TestFig10Shape(t *testing.T) {
	tab, err := runner(t).Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	cs := colIndex(t, tab, core.MechCStream)
	n := len(tab.Rows)
	if cell(t, tab, n-1, cs) > cell(t, tab, 0, cs)+1e-9 {
		t.Errorf("CStream should not cost more at loose L_set: %.3f vs %.3f",
			cell(t, tab, n-1, cs), cell(t, tab, 0, cs))
	}
	os := colIndex(t, tab, core.MechOS)
	lo, hi := cell(t, tab, 0, os), cell(t, tab, n-1, os)
	if hi/lo > 1.25 || lo/hi > 1.25 {
		t.Errorf("OS energy should be roughly constant across L_set: %.3f vs %.3f", lo, hi)
	}
}

// Fig. 11 shape: tiny batches cost more; energy stabilizes past 10^3 bytes.
func TestFig11Shape(t *testing.T) {
	tab, err := runner(t).Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	cs := colIndex(t, tab, core.MechCStream)
	small := cell(t, tab, 0, cs)
	large := cell(t, tab, len(tab.Rows)-1, cs)
	if small <= large {
		t.Errorf("B=100 (%.3f) should cost more than B≈1MB (%.3f)", small, large)
	}
}

// Fig. 13 shape: LO energy increases with symbol duplication, BO decreases,
// CStream stays the cheapest.
func TestFig13Shape(t *testing.T) {
	tab, err := runner(t).Run("fig13")
	if err != nil {
		t.Fatal(err)
	}
	lo := colIndex(t, tab, core.MechLO)
	bo := colIndex(t, tab, core.MechBO)
	n := len(tab.Rows)
	if cell(t, tab, n-1, lo) <= cell(t, tab, 0, lo) {
		t.Errorf("LO should worsen with duplication: %.3f -> %.3f",
			cell(t, tab, 0, lo), cell(t, tab, n-1, lo))
	}
	if cell(t, tab, n-1, bo) >= cell(t, tab, 0, bo) {
		t.Errorf("BO should improve with duplication: %.3f -> %.3f",
			cell(t, tab, 0, bo), cell(t, tab, n-1, bo))
	}
	cs := colIndex(t, tab, core.MechCStream)
	for r := 0; r < n; r++ {
		base := cell(t, tab, r, cs)
		for c := 1; c <= 6; c++ {
			if c != cs && cell(t, tab, r, c) < base*0.985 {
				t.Errorf("row %d: %s beat CStream", r, tab.Columns[c])
			}
		}
	}
}

// Fig. 14 shape: energy grows with dynamic range for every mechanism.
func TestFig14Shape(t *testing.T) {
	tab, err := runner(t).Run("fig14")
	if err != nil {
		t.Fatal(err)
	}
	n := len(tab.Rows)
	for c := 1; c <= 6; c++ {
		if cell(t, tab, n-1, c) <= cell(t, tab, 0, c) {
			t.Errorf("%s should cost more at high range: %.3f -> %.3f",
				tab.Columns[c], cell(t, tab, 0, c), cell(t, tab, n-1, c))
		}
	}
}

// Fig. 17 shape: monotone improvement simple → +decom. → +asy-comp. on
// energy, with +asy-comm. fixing +asy-comp.'s violations.
func TestFig17Shape(t *testing.T) {
	tab, err := runner(t).Run("fig17")
	if err != nil {
		t.Fatal(err)
	}
	e := map[string]float64{}
	v := map[string]float64{}
	for r := range tab.Rows {
		e[tab.Rows[r][0]] = cell(t, tab, r, 1)
		v[tab.Rows[r][0]] = cell(t, tab, r, 2)
	}
	if e[core.MechDecom] >= e[core.MechSimple] {
		t.Errorf("+decom. (%.3f) should beat simple (%.3f)", e[core.MechDecom], e[core.MechSimple])
	}
	if e[core.MechAsyComp] >= e[core.MechDecom] {
		t.Errorf("+asy-comp. (%.3f) should beat +decom. (%.3f)", e[core.MechAsyComp], e[core.MechDecom])
	}
	if v[core.MechAsyComm] != 0 {
		t.Errorf("+asy-comm. CLCV = %.3f, want 0", v[core.MechAsyComm])
	}
	if v[core.MechAsyComp] <= v[core.MechAsyComm] {
		t.Errorf("+asy-comp. should violate more than +asy-comm. (%.3f vs %.3f)",
			v[core.MechAsyComp], v[core.MechAsyComm])
	}
}

// Table IV shape: t0 prefers big (much faster, slightly more energy), t1
// prefers little (large energy saving).
func TestTable4Shape(t *testing.T) {
	tab, err := runner(t).Run("table4")
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) int {
		for r := range tab.Rows {
			if tab.Rows[r][0] == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return -1
	}
	t0, t1 := find("t0"), find("t1")
	lBig, lLittle := colIndex(t, tab, "l big (µs/B)"), colIndex(t, tab, "l little (µs/B)")
	eBig, eLittle := colIndex(t, tab, "e big (µJ/B)"), colIndex(t, tab, "e little (µJ/B)")
	// t0: big roughly halves latency.
	if cell(t, tab, t0, lBig) > 0.6*cell(t, tab, t0, lLittle) {
		t.Error("t0 on big should cut latency by ~50%")
	}
	// t1: little roughly third of the energy.
	if cell(t, tab, t1, eLittle) > 0.5*cell(t, tab, t1, eBig) {
		t.Error("t1 on little should cost far less energy")
	}
	// κ ordering: t0 > t_all > t1.
	k := colIndex(t, tab, "kappa")
	tAll := find("t_all")
	if !(cell(t, tab, t0, k) > cell(t, tab, tAll, k) && cell(t, tab, tAll, k) > cell(t, tab, t1, k)) {
		t.Error("κ ordering t0 > t_all > t1 violated")
	}
}

// Table V shape: relative errors stay near the paper's (≤ ~0.15 latency,
// ≤ ~0.20 energy).
func TestTable5Shape(t *testing.T) {
	tab, err := runner(t).Run("table5")
	if err != nil {
		t.Fatal(err)
	}
	relL := colIndex(t, tab, "rel err L")
	relE := colIndex(t, tab, "rel err E")
	for r := range tab.Rows {
		if v := cell(t, tab, r, relL); v > 0.15 {
			t.Errorf("%s: latency relative error %.3f too high", tab.Rows[r][0], v)
		}
		if v := cell(t, tab, r, relE); v > 0.20 {
			t.Errorf("%s: energy relative error %.3f too high", tab.Rows[r][0], v)
		}
	}
}

// Fig. 16 shape: conservative saves energy vs default for CStream, ondemand
// doesn't; CStream CLCV stays lowest per strategy.
func TestFig16Shape(t *testing.T) {
	tab, err := runner(t).Run("fig16")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for r := range tab.Rows {
		rows[tab.Rows[r][0]] = r
	}
	cs := colIndex(t, tab, core.MechCStream)
	if cell(t, tab, rows["conservative"], cs) >= cell(t, tab, rows["default"], cs) {
		t.Error("conservative should reduce CStream energy vs default")
	}
	if cell(t, tab, rows["ondemand"], cs) <= cell(t, tab, rows["conservative"], cs) {
		t.Error("ondemand should cost more than conservative")
	}
}

func TestRenderContainsNotes(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a"}, Notes: []string{"hello"}}
	tab.AddRow("1")
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "note: hello") {
		t.Fatal("notes not rendered")
	}
}
