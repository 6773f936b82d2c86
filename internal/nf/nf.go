package nf

import (
	"fmt"

	"nfcompass/internal/ac"
	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/ipsec"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/redfa"
	"nfcompass/internal/trie"
)

// NF is a network function: a named, typed factory of element-graph
// fragments plus the action profile the orchestrator analyzes. Build may be
// called multiple times (e.g. for parallel replicas); every call creates
// fresh element instances so replicas do not share mutable state.
type NF struct {
	Name    string
	Kind    Kind
	Profile ActionProfile
	// Build instantiates the NF's elements into g and returns the entry
	// and exit nodes of the fragment. prefix namespaces instance names.
	Build func(g *element.Graph, prefix string) (entry, exit element.NodeID)
}

// fingerprintStrings hashes a pattern list so identically-configured NFs
// (not identically-named ones) share element signatures.
func fingerprintStrings(ss []string) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// chain wires nodes sequentially inside g and returns (first, last).
func chainNodes(g *element.Graph, ids ...element.NodeID) (element.NodeID, element.NodeID) {
	for i := 0; i+1 < len(ids); i++ {
		g.MustConnect(ids[i], 0, ids[i+1])
	}
	return ids[0], ids[len(ids)-1]
}

// NewFirewall builds a firewall NF over an ACL. When neverDrop is set the
// firewall classifies but forwards denied packets (the paper's throughput-
// measurement configuration); its profile then matches Table II (no drop).
func NewFirewall(name string, list *acl.List, neverDrop bool) *NF {
	profile := TableII[KindFirewall]
	if !neverDrop {
		profile.Drop = true
	}
	sig := fmt.Sprintf("%x/%d", list.Fingerprint(), list.Len())
	// One classification tree shared by every instance this NF builds:
	// lookups write nothing, and rebuilding the tree per replica would
	// dominate deployment time for large ACLs.
	tree := acl.BuildTree(list, 8)
	return &NF{
		Name: name, Kind: KindFirewall, Profile: profile,
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			fw := g.Add(NewACLFilterTree(prefix+"/acl", sig, tree, neverDrop))
			return chainNodes(g, chk, fw)
		},
	}
}

// NewIPv4Router builds the IPv4 forwarder: header check, LPM lookup, TTL
// decrement, L2 rewrite.
func NewIPv4Router(name string, table *trie.Dir24_8, sig string) *NF {
	return &NF{
		Name: name, Kind: KindIPv4, Profile: DefaultProfile(KindIPv4),
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			rt := g.Add(element.NewIPLookup(prefix+"/rt", sig, table))
			ttl := g.Add(element.NewDecTTL(prefix + "/ttl"))
			mac := g.Add(element.NewEtherEncap(prefix+"/mac",
				netpkt.MAC{2, 0, 0, 0, 0, 1}, netpkt.MAC{2, 0, 0, 0, 0, 2}))
			return chainNodes(g, chk, rt, ttl, mac)
		},
	}
}

// NewIPv6Router builds the IPv6 forwarder over the hash-based LPM.
func NewIPv6Router(name string, table *trie.V6HashLPM, sig string) *NF {
	return &NF{
		Name: name, Kind: KindIPv6, Profile: DefaultProfile(KindIPv6),
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			rt := g.Add(NewV6Lookup(prefix+"/rt6", sig, table))
			mac := g.Add(element.NewEtherEncap(prefix+"/mac",
				netpkt.MAC{2, 0, 0, 0, 0, 1}, netpkt.MAC{2, 0, 0, 0, 0, 2}))
			return chainNodes(g, rt, mac)
		},
	}
}

// NewIPsecGateway builds the ESP encryption gateway. Each Build call gets
// its own SA (sequence numbers are per-instance state).
func NewIPsecGateway(name string, spi uint32, encKey, authKey []byte) *NF {
	return &NF{
		Name: name, Kind: KindIPsec, Profile: DefaultProfile(KindIPsec),
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			sa, err := ipsec.NewSA(spi, encKey, authKey)
			if err != nil {
				panic(fmt.Sprintf("nf: bad IPsec keys: %v", err))
			}
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			seal := g.Add(NewIPsecSeal(prefix+"/esp", sa))
			return chainNodes(g, chk, seal)
		},
	}
}

// NewIDS builds an intrusion detection system: header check plus
// Aho–Corasick payload scan; inline mode drops on match.
func NewIDS(name string, patterns []string, dropOnMatch bool) *NF {
	m, err := ac.NewMatcherStrings(patterns)
	if err != nil {
		panic(fmt.Sprintf("nf: bad IDS patterns: %v", err))
	}
	profile := TableII[KindIDS]
	profile.Drop = dropOnMatch
	sig := fmt.Sprintf("%x/%d", fingerprintStrings(patterns), len(patterns))
	return &NF{
		Name: name, Kind: KindIDS, Profile: profile,
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			scan := g.Add(NewAhoCorasickMatch(prefix+"/ac", sig, m, dropOnMatch))
			return chainNodes(g, chk, scan)
		},
	}
}

// NewDPI builds deep packet inspection: Aho–Corasick string matching plus
// DFA regular-expression matching (the two DPI stages the paper uses).
func NewDPI(name string, patterns []string, regexes []string) *NF {
	m, err := ac.NewMatcherStrings(patterns)
	if err != nil {
		panic(fmt.Sprintf("nf: bad DPI patterns: %v", err))
	}
	set, err := redfa.CompileSet(regexes)
	if err != nil {
		panic(fmt.Sprintf("nf: bad DPI regexes: %v", err))
	}
	sigAC := fmt.Sprintf("%x/ac%d", fingerprintStrings(patterns), len(patterns))
	sigRE := fmt.Sprintf("%x/re%d", fingerprintStrings(regexes), len(regexes))
	return &NF{
		Name: name, Kind: KindDPI, Profile: DefaultProfile(KindDPI),
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			str := g.Add(NewAhoCorasickMatch(prefix+"/ac", sigAC, m, false))
			re := g.Add(NewRegexMatch(prefix+"/re", sigRE, set))
			return chainNodes(g, chk, str, re)
		},
	}
}

// NewNAT builds the source-NAT function.
func NewNAT(name string, public netpkt.IPv4Addr) *NF {
	return &NF{
		Name: name, Kind: KindNAT, Profile: TableII[KindNAT],
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			nat := g.Add(NewNATRewrite(prefix+"/nat", public))
			return chainNodes(g, chk, nat)
		},
	}
}

// NewLoadBalancer builds the flow-hashing load balancer.
func NewLoadBalancer(name string, backends int) *NF {
	return &NF{
		Name: name, Kind: KindLB, Profile: TableII[KindLB],
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			lb := g.Add(NewLoadBalance(prefix+"/lb", backends))
			return lb, lb
		},
	}
}

// NewProbe builds the monitoring probe (header-reading counter).
func NewProbe(name string) *NF {
	return &NF{
		Name: name, Kind: KindProbe, Profile: TableII[KindProbe],
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			c := g.Add(element.NewCounter(prefix + "/cnt"))
			return c, c
		},
	}
}

// NewProxy builds the proxy NF (payload rewriting).
func NewProxy(name string, token []byte) *NF {
	return &NF{
		Name: name, Kind: KindProxy, Profile: TableII[KindProxy],
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			pr := g.Add(NewPayloadRewrite(prefix+"/rw", token))
			return chainNodes(g, chk, pr)
		},
	}
}

// NewWANOptimizer builds the WAN optimization NF (compression + dedup).
func NewWANOptimizer(name string) *NF {
	return &NF{
		Name: name, Kind: KindWANOpt, Profile: TableII[KindWANOpt],
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			w := g.Add(NewWANCompress(prefix + "/wan"))
			return chainNodes(g, chk, w)
		},
	}
}

// BuildChain assembles a sequential SFC — FromDevice, the NFs in order,
// ToDevice — into a fresh graph, returning it with its executor-ready
// endpoints. This is the unoptimized deployment shape (the paper's
// configuration "a").
func BuildChain(nfs []*NF) (*element.Graph, element.NodeID, element.NodeID) {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	prev := src
	for i, f := range nfs {
		entry, exit := f.Build(g, fmt.Sprintf("%s#%d", f.Name, i))
		g.MustConnect(prev, 0, entry)
		prev = exit
	}
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(prev, 0, dst)
	return g, src, dst
}
