package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestSymbolName(t *testing.T) {
	for sym, want := range map[string]string{
		"nfcompass/internal/netpkt.(*Batch).Release":                                    "nfcompass/internal/netpkt.(*Batch).Release",
		"nfcompass/internal/flowtable.(*Sharded[go.shape.struct {}]).Touch":             "nfcompass/internal/flowtable.(*Sharded).Touch",
		"nfcompass/internal/dataplane.sendTimed[go.shape.struct { x [4]int; y *int }]":  "nfcompass/internal/dataplane.sendTimed",
		"nfcompass/internal/core.DeployTenants.func2":                                   "nfcompass/internal/core.DeployTenants",
		"nfcompass/internal/ingress.(*NIC).Steer.func1.1":                               "nfcompass/internal/ingress.(*NIC).Steer",
		"nfcompass/internal/dataplane.(*Pipeline).run.gowrap3":                          "nfcompass/internal/dataplane.(*Pipeline).run",
		"nfcompass/internal/telemetry.(*Server).handleChainsSubmit-fm":                  "nfcompass/internal/telemetry.(*Server).handleChainsSubmit",
		"nfcompass/internal/ipsec.blockSHANI.abi0":                                      "nfcompass/internal/ipsec.blockSHANI",
		"nfcompass/internal/flowtable.(*Table[*nfcompass/internal/nf.flowState]).Reset": "nfcompass/internal/flowtable.(*Table).Reset",
	} {
		if got := symbolName(sym); got != want {
			t.Errorf("symbolName(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestFuncDecl(t *testing.T) {
	src := `package p
func F() {}
func (t T) Value() {}
func (t *T) Pointer() {}
func (s *S[K, V]) Generic() {}
func (s S[K]) GenericValue() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []decl{
		{name: "x.F"},
		{name: "x.T.Value", alt: "x.(*T).Value"},
		{name: "x.(*T).Pointer"},
		{name: "x.(*S).Generic"},
		{name: "x.S.GenericValue", alt: "x.(*S).GenericValue"},
	}
	for i, d := range f.Decls {
		if got := funcDecl("x", d.(*ast.FuncDecl), ""); got != want[i] {
			t.Errorf("decl %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestOptionFields runs the option-field guard over the fixture modules in
// testdata/fields, whose field comments say who writes each field. A field
// fails when nothing outside its package writes it and the keep-list does
// not hold it with a ROADMAP item, and a keep-list entry fails when it is
// stale.
func TestOptionFields(t *testing.T) {
	opts, written, err := optionFields("testdata/fields")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, o := range opts {
		names = append(names, o.name)
	}
	want := []string{
		"opt.Config.Addressed", "opt.Config.Assigned", "opt.Config.Bench",
		"opt.Config.Bumped", "opt.Config.Defaulted", "opt.Config.Kept",
		"opt.Config.Keyed", "opt.Config.Listed", "opt.Config.TestOnly",
		"opt.Config.Unreasoned", "opt.Config.Unused",
		"opt.PairOptions.A", "opt.PairOptions.B",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("option fields %v, want %v", names, want)
	}

	bad := checkFields(opts, written, map[string]string{
		"opt.Config.Kept":       "ROADMAP item 7 sets it",
		"opt.Config.Unreasoned": "a later change sets it",
		"opt.Config.Listed":     "ROADMAP item 7 sets it",
		"opt.Config.Gone":       "ROADMAP item 7 sets it",
	})
	for _, row := range []struct {
		field string
		fail  bool
	}{
		{"opt.Config.Keyed", false},
		{"opt.Config.Assigned", false},
		{"opt.Config.Addressed", false},
		{"opt.Config.Bumped", false},
		{"opt.Config.Bench", false},     // benchmark module only
		{"opt.PairOptions.A", false},    // unkeyed literal only
		{"opt.PairOptions.B", false},    // unkeyed literal only
		{"opt.Config.Kept", false},      // kept for a ROADMAP item
		{"opt.Config.Unused", true},     // a scratch field nobody sets
		{"opt.Config.Defaulted", true},  // its own package's defaulting only
		{"opt.Config.TestOnly", true},   // a _test.go file only
		{"opt.Config.Unreasoned", true}, // kept without a ROADMAP item
		{"opt.Config.Listed", true},     // kept, but written
		{"opt.Config.Gone", true},       // kept, but declared nowhere
	} {
		failed := false
		for _, line := range bad {
			if strings.Contains(line, row.field+" ") {
				failed = true
			}
		}
		if failed != row.fail {
			t.Errorf("%s: failed %v, want %v (report %q)", row.field, failed, row.fail, bad)
		}
	}
}
