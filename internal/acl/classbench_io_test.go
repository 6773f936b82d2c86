package acl

// ClassBench filter-set file I/O. The paper's Fig. 17 uses "three real
// ACLs [ClassBench]"; tests and the package example load filter sets in
// the classic ClassBench format with this reader (no binary reads filter
// files; the live ACLs come from the synthetic generator):
//
//	@<srcip>/<plen>  <dstip>/<plen>  <lo> : <hi>  <lo> : <hi>  <proto>/<mask>
//
// e.g. "@192.168.0.0/16 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF".
// Lines not starting with '@' are ignored (comments). The writer emits the
// same format, so generated ACLs round-trip through it.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"nfcompass/internal/netpkt"
)

// ParseClassBench reads a ClassBench filter set. Rules get action Permit
// (ClassBench files carry no actions); callers may rewrite actions.
func ParseClassBench(r io.Reader) (*List, error) {
	l := &List{DefaultAction: Permit}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || !strings.HasPrefix(line, "@") {
			continue
		}
		rule, err := parseClassBenchLine(line[1:])
		if err != nil {
			return nil, fmt.Errorf("acl: line %d: %w", lineNo, err)
		}
		l.Rules = append(l.Rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

func parseClassBenchLine(line string) (Rule, error) {
	var r Rule
	fields := strings.Fields(line)
	// Expected: src/len dst/len lo : hi lo : hi proto/mask [flags...]
	if len(fields) < 9 {
		return r, fmt.Errorf("want >= 9 fields, have %d", len(fields))
	}
	var err error
	r.SrcAddr, r.SrcPlen, err = parsePrefix(fields[0])
	if err != nil {
		return r, fmt.Errorf("src: %w", err)
	}
	r.DstAddr, r.DstPlen, err = parsePrefix(fields[1])
	if err != nil {
		return r, fmt.Errorf("dst: %w", err)
	}
	r.SrcPort, err = parseRange(fields[2], fields[3], fields[4])
	if err != nil {
		return r, fmt.Errorf("sport: %w", err)
	}
	r.DstPort, err = parseRange(fields[5], fields[6], fields[7])
	if err != nil {
		return r, fmt.Errorf("dport: %w", err)
	}
	r.Proto, r.ProtoAny, err = parseProto(fields[8])
	if err != nil {
		return r, fmt.Errorf("proto: %w", err)
	}
	r.Action = Permit
	return r, nil
}

func parsePrefix(s string) (netpkt.IPv4Addr, int, error) {
	addrStr, lenStr, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("missing /len in %q", s)
	}
	plen, err := strconv.Atoi(lenStr)
	if err != nil || plen < 0 || plen > 32 {
		return 0, 0, fmt.Errorf("bad prefix length %q", lenStr)
	}
	parts := strings.Split(addrStr, ".")
	if len(parts) != 4 {
		return 0, 0, fmt.Errorf("bad address %q", addrStr)
	}
	var addr uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, 0, fmt.Errorf("bad octet %q", p)
		}
		addr = addr<<8 | uint32(v)
	}
	return maskAddr(netpkt.IPv4Addr(addr), plen), plen, nil
}

func parseRange(lo, colon, hi string) (PortRange, error) {
	if colon != ":" {
		return PortRange{}, fmt.Errorf("want ':' separator, have %q", colon)
	}
	l, err := strconv.Atoi(lo)
	if err != nil || l < 0 || l > 65535 {
		return PortRange{}, fmt.Errorf("bad low port %q", lo)
	}
	h, err := strconv.Atoi(hi)
	if err != nil || h < 0 || h > 65535 {
		return PortRange{}, fmt.Errorf("bad high port %q", hi)
	}
	if h < l {
		return PortRange{}, fmt.Errorf("inverted range %d:%d", l, h)
	}
	return PortRange{Lo: uint16(l), Hi: uint16(h)}, nil
}

func parseProto(s string) (netpkt.IPProto, bool, error) {
	protoStr, maskStr, ok := strings.Cut(s, "/")
	if !ok {
		return 0, false, fmt.Errorf("missing /mask in %q", s)
	}
	proto, err := strconv.ParseUint(strings.TrimPrefix(protoStr, "0x"), 16, 8)
	if err != nil {
		return 0, false, fmt.Errorf("bad protocol %q", protoStr)
	}
	mask, err := strconv.ParseUint(strings.TrimPrefix(maskStr, "0x"), 16, 8)
	if err != nil {
		return 0, false, fmt.Errorf("bad mask %q", maskStr)
	}
	if mask == 0 {
		return 0, true, nil // wildcard protocol
	}
	return netpkt.IPProto(proto), false, nil
}

// WriteClassBench emits the list in ClassBench filter format.
func WriteClassBench(w io.Writer, l *List) error {
	bw := bufio.NewWriter(w)
	for i := range l.Rules {
		r := &l.Rules[i]
		proto := "0x00/0x00"
		if !r.ProtoAny {
			proto = fmt.Sprintf("0x%02X/0xFF", uint8(r.Proto))
		}
		if _, err := fmt.Fprintf(bw, "@%v/%d\t%v/%d\t%d : %d\t%d : %d\t%s\n",
			r.SrcAddr, r.SrcPlen, r.DstAddr, r.DstPlen,
			r.SrcPort.Lo, r.SrcPort.Hi, r.DstPort.Lo, r.DstPort.Hi, proto); err != nil {
			return err
		}
	}
	return bw.Flush()
}

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
	orig := Generate(150, 5)
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
