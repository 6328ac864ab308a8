package policy_test

import (
	"testing"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/policy"
)

// Registry views must preserve paper ordering: the six mechanisms of Section
// VI-A, the four breakdown factors of Section VII-D, then the extensions.
func TestRegistryOrdering(t *testing.T) {
	mechs := policy.Mechanisms()
	wantMechs := []string{policy.CStream, policy.OS, policy.CS, policy.RR, policy.BO, policy.LO}
	if len(mechs) != len(wantMechs) {
		t.Fatalf("mechanisms: got %v", mechs)
	}
	for i, m := range wantMechs {
		if mechs[i] != m {
			t.Fatalf("mechanism %d: got %s, want %s", i, mechs[i], m)
		}
	}
	brk := policy.BreakdownFactors()
	wantBrk := []string{policy.Simple, policy.Decom, policy.AsyComp, policy.AsyComm}
	if len(brk) != len(wantBrk) {
		t.Fatalf("breakdown factors: got %v", brk)
	}
	for i, b := range wantBrk {
		if brk[i] != b {
			t.Fatalf("breakdown %d: got %s, want %s", i, brk[i], b)
		}
	}
	ext := policy.Extensions()
	wantExt := []string{policy.HEFT, policy.Chain}
	if len(ext) != len(wantExt) {
		t.Fatalf("extensions: got %v", ext)
	}
	for i, e := range wantExt {
		if ext[i] != e {
			t.Fatalf("extension %d: got %s, want %s", i, ext[i], e)
		}
	}
	names := policy.Names()
	if len(names) != len(mechs)+len(brk)+len(ext) {
		t.Fatalf("Names() holds %d entries, want %d", len(names), len(mechs)+len(brk)+len(ext))
	}
}

func TestLookup(t *testing.T) {
	p, ok := policy.Lookup(policy.CStream)
	if !ok || p.Name() != policy.CStream {
		t.Fatalf("Lookup(CStream) = %v, %v", p, ok)
	}
	if _, ok := policy.Lookup("nope"); ok {
		t.Fatal("Lookup accepted an unregistered name")
	}
}

// Infos and the derived CLI/markdown listings must cover every registered
// policy with a non-empty description.
func TestInfosAndListings(t *testing.T) {
	infos := policy.Infos()
	if len(infos) != len(policy.Names()) {
		t.Fatalf("Infos() holds %d entries, Names() %d", len(infos), len(policy.Names()))
	}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
	}
	desc := policy.Describe()
	table := policy.MarkdownTable()
	for _, name := range policy.Names() {
		if !contains(desc, name) {
			t.Errorf("Describe() omits %s", name)
		}
		if !contains(table, "`"+name+"`") {
			t.Errorf("MarkdownTable() omits %s", name)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// The HEFT placement must be a pure function of its inputs: identical graphs
// yield identical plans across repeated calls.
func TestHEFTDeterministicPlacement(t *testing.T) {
	m := amp.NewRK3399()
	tasks := []costmodel.LogicalTask{
		{Name: "read", Steps: []compress.StepKind{compress.StepRead}, InstrPerByte: 4, Kappa: 0.8, OutPerByte: 1, InPerByte: 1, Replicas: 2},
		{Name: "encode", Steps: []compress.StepKind{compress.StepEncode}, InstrPerByte: 9, Kappa: 2.5, OutPerByte: 0.5, InPerByte: 1, Replicas: 1},
		{Name: "write", Steps: []compress.StepKind{compress.StepWrite}, InstrPerByte: 2, Kappa: 0.5, OutPerByte: 0.5, InPerByte: 0.5, Replicas: 1},
	}
	g := costmodel.BuildGraph(tasks, 64*1024)
	place := policy.HEFTPlace(m, 26)
	first := place(g)
	for i := 0; i < 5; i++ {
		if got := place(g); !first.Equal(got) {
			t.Fatalf("HEFT placement not deterministic: %v vs %v", first, got)
		}
	}
	if len(first) != len(g.Tasks) {
		t.Fatalf("plan covers %d tasks, graph has %d", len(first), len(g.Tasks))
	}
	for _, c := range first {
		if c < 0 || c >= m.NumCores() {
			t.Fatalf("plan assigns invalid core %d", c)
		}
	}
}
