package main

import (
	"go/ast"
	"go/parser"
	"go/token"
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
