package acl

import (
	"bytes"
	"strings"
	"testing"

	"nfcompass/internal/netpkt"
)

const sampleFilterSet = `
# comment line, ignored
@192.168.0.0/16	10.0.0.0/8	0 : 65535	80 : 80	0x06/0xFF
@0.0.0.0/0	172.16.1.0/24	1024 : 65535	53 : 53	0x11/0xFF
@10.1.2.3/32	0.0.0.0/0	0 : 65535	0 : 65535	0x00/0x00
`

func TestParseClassBench(t *testing.T) {
	l, err := ParseClassBench(strings.NewReader(sampleFilterSet))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("rules = %d", l.Len())
	}
	r0 := l.Rules[0]
	if r0.SrcAddr != 0xc0a80000 || r0.SrcPlen != 16 {
		t.Errorf("rule0 src = %v/%d", r0.SrcAddr, r0.SrcPlen)
	}
	if r0.DstAddr != 0x0a000000 || r0.DstPlen != 8 {
		t.Errorf("rule0 dst = %v/%d", r0.DstAddr, r0.DstPlen)
	}
	if r0.DstPort != (PortRange{80, 80}) || r0.SrcPort != AnyPort {
		t.Errorf("rule0 ports = %v %v", r0.SrcPort, r0.DstPort)
	}
	if r0.Proto != netpkt.IPProtoTCP || r0.ProtoAny {
		t.Errorf("rule0 proto = %d any=%v", r0.Proto, r0.ProtoAny)
	}
	if !l.Rules[2].ProtoAny {
		t.Error("rule2 should be protocol-wildcard")
	}
	// Functional: the parsed rules classify as written.
	k := Key{Src: 0xc0a80101, Dst: 0x0a010101, SrcPort: 5555, DstPort: 80,
		Proto: netpkt.IPProtoTCP}
	if !l.Rules[0].Matches(k) {
		t.Error("parsed rule does not match its own key")
	}
}

func TestParseClassBenchErrors(t *testing.T) {
	bad := []string{
		"@192.168.0.0 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF",  // no src len
		"@1.2.3.4/33 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF",   // plen 33
		"@1.2.3/24 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF",     // 3 octets
		"@1.2.3.4/24 10.0.0.0/8 0 ; 65535 80 : 80 0x06/0xFF",   // bad sep
		"@1.2.3.4/24 10.0.0.0/8 9 : 1 80 : 80 0x06/0xFF",       // inverted
		"@1.2.3.4/24 10.0.0.0/8 0 : 65535 80 : 80 0x06",        // no mask
		"@1.2.3.4/24 10.0.0.0/8 0 : 65535 80 : 80 zz/0xFF",     // bad proto
		"@1.2.3.4/24 10.0.0.0/8 0 : 70000 80 : 80 0x06/0xFF",   // port range
		"@1.2.999.4/24 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF", // octet 999
		"@1.2.3.4/24", // short
	}
	for _, line := range bad {
		if _, err := ParseClassBench(strings.NewReader(line)); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestClassBenchRoundTrip(t *testing.T) {
	orig := Generate(DefaultGenConfig(150, 5))
	var buf bytes.Buffer
	if err := WriteClassBench(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseClassBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip lost rules: %d != %d", back.Len(), orig.Len())
	}
	for i := range orig.Rules {
		o, b := orig.Rules[i], back.Rules[i]
		// Action is not part of the format; compare the match fields.
		o.Action, b.Action = Permit, Permit
		if o != b {
			t.Fatalf("rule %d: %+v != %+v", i, o, b)
		}
	}
}

func TestParsedListBuildsTree(t *testing.T) {
	l, err := ParseClassBench(strings.NewReader(sampleFilterSet))
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildTree(l, 8)
	a, idx, _ := tree.Match(Key{Src: 0x0a010203, Dst: 0xac100105,
		SrcPort: 2000, DstPort: 53, Proto: netpkt.IPProtoUDP})
	if a != Permit || idx != 1 {
		t.Errorf("Match = %v,%d, want permit,1", a, idx)
	}
}
