package spec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestTokensRoundTrip pins the Spec → String → Parse round trip: tokens
// re-emitted by Token.String parse back to the same tokens, and the rebuilt
// chain has the same NF sequence.
func TestTokensRoundTrip(t *testing.T) {
	for _, s := range []string{
		"firewall:1000,ipv4,nat,ids",
		" probe , ipsec:0x2001 ,streamids",
		"lb:8",
		"dpi,wanopt,proxy,ipv6",
	} {
		toks, err := Tokens(s)
		if err != nil {
			t.Fatalf("Tokens(%q): %v", s, err)
		}
		parts := make([]string, len(toks))
		for i, tok := range toks {
			parts[i] = tok.String()
		}
		canon := strings.Join(parts, ",")
		toks2, err := Tokens(canon)
		if err != nil {
			t.Fatalf("Tokens(%q) re-emitted as %q: %v", s, canon, err)
		}
		if !reflect.DeepEqual(toks, toks2) {
			t.Fatalf("round trip of %q changed tokens: %v vs %v", s, toks, toks2)
		}
		// The canonical string must also build the same chain.
		a, err := Parse(s, 1)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		b, err := Parse(canon, 1)
		if err != nil {
			t.Fatalf("Parse(%q): %v", canon, err)
		}
		if len(a) != len(b) {
			t.Fatalf("chain length differs: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Kind != b[i].Kind {
				t.Errorf("position %d: kind %v vs %v", i, a[i].Kind, b[i].Kind)
			}
		}
	}
}

// TestParseErrorsListNames asserts every Parse-level failure names the
// accepted NFs, so a bad submitted spec is self-explaining.
func TestParseErrorsListNames(t *testing.T) {
	for _, s := range []string{"", "ipv4,,nat", "bogus", "ipv4,zzz:7"} {
		_, err := Parse(s, 1)
		if err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", s)
		}
		msg := err.Error()
		if !strings.Contains(msg, "accepted NFs:") {
			t.Fatalf("Parse(%q) error %q does not list accepted NFs", s, msg)
		}
		for _, name := range Names() {
			if !strings.Contains(msg, name) {
				t.Errorf("Parse(%q) error misses accepted NF %q", s, name)
			}
		}
	}
}

func TestChainSpecJSONRoundTrip(t *testing.T) {
	syn := false
	in := ChainSpec{
		Name: "tenant-a", Revision: 3, Chain: "firewall:500,ipv4,nat",
		Seed: 42, Shards: 4, BatchSize: 128, PktSize: 256, Offload: true,
		Synthesize: &syn,
		SLO:        SLO{P99Us: 1500, GuardTicks: 5},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseChainSpec(data)
	if err != nil {
		t.Fatalf("ParseChainSpec(JSON): %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("JSON round trip changed spec:\n in: %+v\nout: %+v", in, out)
	}
}

func TestChainSpecValidate(t *testing.T) {
	bad := []ChainSpec{
		{Name: "", Revision: 1, Chain: "ipv4"},
		{Name: "a", Revision: 0, Chain: "ipv4"},
		{Name: "a", Revision: 1, Chain: "no-such-nf"},
		{Name: "a", Revision: 1, Chain: "ipv4", Shards: -1},
		{Name: "a", Revision: 1, Chain: "ipv4", SLO: SLO{P99Us: -5}},
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("Build(%+v) unexpectedly passed", s)
		}
	}
	good := ChainSpec{Name: "a", Revision: 1, Chain: "firewall:100,ipv4"}
	if _, err := good.Build(); err != nil {
		t.Errorf("Build(%+v): %v", good, err)
	}
	// Unknown fields are rejected: a typoed knob must not silently no-op.
	if _, err := ParseChainSpec([]byte(`{"name":"a","revision":1,"chain":"ipv4","sloo":{}}`)); err == nil {
		t.Error("unknown field accepted")
	}
}
