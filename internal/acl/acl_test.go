package acl

import (
	"fmt"
	"math/rand"
	"testing"

	"nfcompass/internal/netpkt"
)

// String renders the rule in an iptables-like form for failure messages.
func (r *Rule) String() string {
	proto := "any"
	if !r.ProtoAny {
		proto = fmt.Sprintf("%d", r.Proto)
	}
	return fmt.Sprintf("%s src %v/%d dst %v/%d sport %d-%d dport %d-%d proto %s",
		r.Action, r.SrcAddr, r.SrcPlen, r.DstAddr, r.DstPlen,
		r.SrcPort.Lo, r.SrcPort.Hi, r.DstPort.Lo, r.DstPort.Hi, proto)
}

// matches reports whether rule r, alone in a list, matches k under the
// linear reference.
func matches(r *Rule, k Key) bool {
	_, i := (&List{Rules: []Rule{*r}}).MatchLinear(k)
	return i == 0
}

func TestRuleMatches(t *testing.T) {
	r := Rule{
		SrcAddr: 0x0a000000, SrcPlen: 8,
		DstAddr: 0xc0a80100, DstPlen: 24,
		SrcPort: AnyPort, DstPort: PortRange{80, 80},
		Proto: netpkt.IPProtoTCP,
	}
	k := Key{Src: 0x0a010203, Dst: 0xc0a80105, SrcPort: 5555, DstPort: 80, Proto: netpkt.IPProtoTCP}
	if !matches(&r, k) {
		t.Error("rule should match")
	}
	k2 := k
	k2.DstPort = 81
	if matches(&r, k2) {
		t.Error("wrong dst port matched")
	}
	k3 := k
	k3.Proto = netpkt.IPProtoUDP
	if matches(&r, k3) {
		t.Error("wrong proto matched")
	}
	k4 := k
	k4.Dst = 0xc0a80205
	if matches(&r, k4) {
		t.Error("wrong dst net matched")
	}
	r.ProtoAny = true
	if !matches(&r, k3) {
		t.Error("ProtoAny should match UDP")
	}
	for _, empty := range []PortRange{{81, 80}, {65535, 0}} {
		for _, k := range []Key{k, k3} {
			e := r
			e.DstPort = empty
			if matches(&e, k) {
				t.Errorf("empty port range %v matched %+v", empty, k)
			}
			if _, i, _ := BuildTree(&List{Rules: []Rule{e}}, 8).Match(k); i != -1 {
				t.Errorf("tree: empty port range %v matched %+v", empty, k)
			}
		}
	}
}

func TestListFirstMatchWins(t *testing.T) {
	l := &List{
		Rules: []Rule{
			{SrcPlen: 0, DstPlen: 0, SrcPort: AnyPort, DstPort: PortRange{22, 22}, ProtoAny: true, Action: Deny},
			{SrcPlen: 0, DstPlen: 0, SrcPort: AnyPort, DstPort: AnyPort, ProtoAny: true, Action: Permit},
		},
		DefaultAction: Deny,
	}
	a, idx := l.MatchLinear(Key{DstPort: 22})
	if a != Deny || idx != 0 {
		t.Errorf("MatchLinear = %v,%d, want deny,0", a, idx)
	}
	a, idx = l.MatchLinear(Key{DstPort: 80})
	if a != Permit || idx != 1 {
		t.Errorf("MatchLinear = %v,%d, want permit,1", a, idx)
	}
}

func TestListDefault(t *testing.T) {
	l := &List{DefaultAction: Deny}
	a, idx := l.MatchLinear(Key{})
	if a != Deny || idx != -1 {
		t.Errorf("default = %v,%d", a, idx)
	}
}

func TestKeyFromPacket(t *testing.T) {
	p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
		SrcIP: 0x0a000001, DstIP: 0x0b000002,
		SrcPort: 1111, DstPort: 53,
	})
	k, ok := KeyFromPacket(p)
	if !ok {
		t.Fatal("KeyFromPacket failed")
	}
	if k.Src != 0x0a000001 || k.DstPort != 53 || k.Proto != netpkt.IPProtoUDP {
		t.Errorf("key = %+v", k)
	}
	bad := netpkt.NewPacket(make([]byte, 10))
	if _, ok := KeyFromPacket(bad); ok {
		t.Error("KeyFromPacket accepted an unparsed packet")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, 7)
	b := Generate(100, 7)
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("lens = %d, %d", a.Len(), b.Len())
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule %d differs between same-seed runs", i)
		}
	}
	c := Generate(100, 8)
	same := 0
	for i := range a.Rules {
		if a.Rules[i] == c.Rules[i] {
			same++
		}
	}
	if same == 100 {
		t.Error("different seeds produced identical ACLs")
	}
}

func TestRandomMatchingKey(t *testing.T) {
	l := Generate(200, 3)
	rng := rand.New(rand.NewSource(9))
	for i := range l.Rules {
		k := RandomMatchingKey(rng, &l.Rules[i])
		if !matches(&l.Rules[i], k) {
			t.Fatalf("rule %d does not match its own generated key\nrule: %v\nkey: %+v",
				i, &l.Rules[i], k)
		}
	}
}

func TestTreeMatchesLinear(t *testing.T) {
	for _, n := range []int{50, 200, 1000} {
		l := Generate(n, int64(n))
		tree := BuildTree(l, 8)
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for i := 0; i < 3000; i++ {
			var k Key
			if i%3 == 0 {
				k = RandomMatchingKey(rng, &l.Rules[rng.Intn(len(l.Rules))])
			} else {
				k = Key{
					Src: netpkt.IPv4Addr(rng.Uint32()), Dst: netpkt.IPv4Addr(rng.Uint32()),
					SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
					Proto: netpkt.IPProtoTCP,
				}
			}
			la, li := l.MatchLinear(k)
			ta, ti, _ := tree.Match(k)
			if la != ta || li != ti {
				t.Fatalf("n=%d key=%+v: tree=(%v,%d) linear=(%v,%d)", n, k, ta, ti, la, li)
			}
		}
	}
}

func TestTreeGrowsWithRules(t *testing.T) {
	small := BuildTree(Generate(200, 1), 8)
	large := BuildTree(Generate(2000, 1), 8)
	if large.Nodes() <= small.Nodes() {
		t.Errorf("tree did not grow: %d vs %d nodes", small.Nodes(), large.Nodes())
	}
	if small.Leaves() <= 0 || small.MaxDepth() <= 0 {
		t.Errorf("degenerate small tree: leaves=%d depth=%d", small.Leaves(), small.MaxDepth())
	}
}

func TestActionString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" {
		t.Error("Action.String broken")
	}
}

func BenchmarkMatchLinear1000(b *testing.B) {
	l := Generate(1000, 1)
	rng := rand.New(rand.NewSource(2))
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = RandomMatchingKey(rng, &l.Rules[rng.Intn(len(l.Rules))])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.MatchLinear(keys[i%len(keys)])
	}
}

// BenchmarkMatchTree1000 times the tree over 1000 rules with two key sets:
// keys drawn to match a random rule of the generator's seed-1 list, and
// telco_churn-shaped UDP keys (10.x sources, 192.168.x destinations,
// destination ports 80/443/53/8080) against that workload's own
// `firewall:1000` list (spec.Parse seed 1 generates with seed 8).
func BenchmarkMatchTree1000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rules, telco := Generate(1000, 1), Generate(1000, 8)
	ruleKeys, telcoKeys := make([]Key, 1024), make([]Key, 1024)
	for i := range ruleKeys {
		ruleKeys[i] = RandomMatchingKey(rng, &rules.Rules[rng.Intn(len(rules.Rules))])
	}
	for i := range telcoKeys {
		telcoKeys[i] = Key{
			Src:     netpkt.IPv4Addr(0x0a000000 | rng.Uint32()&0x00ffffff),
			Dst:     netpkt.IPv4Addr(0xc0a80000 | rng.Uint32()&0xffff),
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: []uint16{80, 443, 53, 8080}[rng.Intn(4)],
			Proto:   netpkt.IPProtoUDP,
		}
	}
	for _, c := range []struct {
		name string
		l    *List
		keys []Key
	}{{"rule-keys", rules, ruleKeys}, {"telco-keys", telco, telcoKeys}} {
		tree := BuildTree(c.l, 8)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree.Match(c.keys[i%len(c.keys)])
			}
		})
	}
}
