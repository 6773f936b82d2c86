// Package spec parses the textual service-chain notation used by the
// command-line tools and configuration files: a comma-separated list of
// NF names with optional colon-separated arguments, e.g.
//
//	firewall:1000,ipv4,nat,ids
//	probe,ipsec:0x2001,streamids
//
// Every NF is constructed with deterministic default tables (routing
// tables with a default route, generated ACLs, benchmark pattern sets) so
// a spec alone fully determines a runnable chain.
package spec

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"nfcompass/internal/acl"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/trie"
)

// DefaultPatterns is the pattern set spec-built IDS/DPI NFs match.
var DefaultPatterns = []string{
	"attack", "malware", "exploit", "overflow", "shellcode",
	"cmd.exe", "/etc/passwd", "DROP TABLE",
}

// DefaultRegexes is the regex set spec-built DPI NFs match.
var DefaultRegexes = []string{`[0-9]+\.exe`, `(select|union)[a-z ]*from`}

// Names lists the NF names the parser accepts.
func Names() []string {
	return []string{
		"firewall[:rules]", "ipv4", "ipv6", "ipsec[:spi]", "ids",
		"streamids", "dpi", "nat", "lb[:backends]", "probe", "proxy", "wanopt",
	}
}

// namesHint renders the accepted-NF list for error messages, so a typo in a
// submitted spec tells the operator exactly what the parser takes.
func namesHint() string { return "accepted NFs: " + strings.Join(Names(), " ") }

// Token is one parsed chain position: an NF name plus its optional
// colon-separated argument. Tokens(s) → Token.String() → Tokens(s) is a
// lossless round trip (modulo whitespace), which is what lets a ChainSpec
// carry a canonical chain string.
type Token struct {
	Name string `json:"name"`
	Arg  string `json:"arg,omitempty"`
}

// String renders the token back into spec notation ("firewall:1000").
func (t Token) String() string {
	if t.Arg == "" {
		return t.Name
	}
	return t.Name + ":" + t.Arg
}

// Tokens splits a chain string into its NF tokens without building
// anything. It performs the purely syntactic half of Parse: name/argument
// separation and empty-position checks; unknown names are caught at build
// time.
func Tokens(s string) ([]Token, error) {
	var toks []Token
	for i, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return nil, fmt.Errorf("spec: empty NF at position %d (%s)", i, namesHint())
		}
		name, arg, _ := strings.Cut(tok, ":")
		toks = append(toks, Token{Name: strings.TrimSpace(name), Arg: strings.TrimSpace(arg)})
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("spec: empty chain (%s)", namesHint())
	}
	return toks, nil
}

// Parse builds the NF chain for a spec string. seed makes generated
// tables (ACLs) deterministic.
func Parse(s string, seed int64) ([]*nf.NF, error) {
	toks, err := Tokens(s)
	if err != nil {
		return nil, err
	}
	chain := make([]*nf.NF, 0, len(toks))
	for i, t := range toks {
		f, err := build(t.Name, t.Arg, fmt.Sprintf("%s%d", t.Name, i), seed)
		if err != nil {
			return nil, fmt.Errorf("spec: %q: %w", t.String(), err)
		}
		chain = append(chain, f)
	}
	return chain, nil
}

func build(name, arg, label string, seed int64) (*nf.NF, error) {
	switch name {
	case "firewall", "fw":
		rules := 200
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad rule count %q", arg)
			}
			rules = n
		}
		list := acl.Generate(rules, seed+7)
		return nf.NewFirewall(label, list, true), nil
	case "ipv4", "router":
		return nf.NewIPv4Router(label, defaultV4Table(), "spec"), nil
	case "ipv6":
		return nf.NewIPv6Router(label, defaultV6Table(), "spec6"), nil
	case "ipsec":
		spi := uint32(0x1000)
		if arg != "" {
			v, err := strconv.ParseUint(strings.TrimPrefix(arg, "0x"), 16, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SPI %q", arg)
			}
			spi = uint32(v)
		}
		return nf.NewIPsecGateway(label, spi,
			[]byte("0123456789abcdef"), []byte("spec-auth")), nil
	case "ids":
		return nf.NewIDS(label, DefaultPatterns, false), nil
	case "streamids":
		return nf.NewStreamIDS(label, DefaultPatterns, false), nil
	case "dpi":
		return nf.NewDPI(label, DefaultPatterns, DefaultRegexes), nil
	case "nat":
		return nf.NewNAT(label, 0x01020304), nil
	case "lb":
		backends := 4
		if arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad backend count %q", arg)
			}
			backends = n
		}
		return nf.NewLoadBalancer(label, backends), nil
	case "probe":
		return nf.NewProbe(label), nil
	case "proxy":
		return nf.NewProxy(label, []byte("VIA")), nil
	case "wanopt":
		return nf.NewWANOptimizer(label), nil
	default:
		return nil, fmt.Errorf("unknown NF (%s)", namesHint())
	}
}

// defaultV4Table is the one routing table every spec-built IPv4 router
// shares: a Dir24_8 is 64 MB whatever it holds and read-only once built
// (Lookup and MemoryAccesses write nothing), so it is built once per
// process — as NewFirewall's replicas share one tree. Not so the IPv6
// table below: V6HashLPM.Lookup counts its probes in the table.
var defaultV4Table = sync.OnceValue(func() *trie.Dir24_8 {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	_ = tr.Insert(0xc0a80000, 16, 2)
	return trie.BuildDir24_8(&tr)
})

func defaultV6Table() *trie.V6HashLPM {
	var tr trie.IPv6Trie
	_ = tr.Insert(netpkt.IPv6Addr{}, 0, 1)
	return trie.BuildV6HashLPM(&tr)
}
