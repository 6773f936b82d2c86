package traffic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"nfcompass/internal/ac"
	"nfcompass/internal/netpkt"
)

func TestDeterminism(t *testing.T) {
	a := NewGenerator(Config{Packets: 10, Seed: 1}).NextBatch(10)
	b := NewGenerator(Config{Packets: 10, Seed: 1}).NextBatch(10)
	for i := range a.Packets {
		if string(a.Packets[i].Data) != string(b.Packets[i].Data) {
			t.Fatalf("packet %d differs between same-seed generators", i)
		}
	}
}

func TestFixedSizes(t *testing.T) {
	g := NewGenerator(Config{Size: Fixed(128), Seed: 2})
	b := g.NextBatch(32)
	for _, p := range b.Packets {
		if p.Len() != 128 {
			t.Fatalf("len = %d, want 128", p.Len())
		}
		if err := p.Parse(); err != nil {
			t.Fatalf("generated packet does not parse: %v", err)
		}
		if !netpkt.IPv4HeaderChecksumOK(p.L3()) {
			t.Fatal("bad IP checksum in generated packet")
		}
	}
}

func TestMinimumSizeEnforced(t *testing.T) {
	g := NewGenerator(Config{Size: Fixed(10), Seed: 3})
	p := g.NextPacket()
	if p.Len() < netpkt.EthernetHeaderLen+netpkt.IPv4MinHeaderLen+netpkt.UDPHeaderLen {
		t.Errorf("packet smaller than headers: %d", p.Len())
	}
}

func TestIMIXProportions(t *testing.T) {
	g := NewGenerator(Config{Size: IMIX{}, Seed: 4})
	counts := map[int]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[g.NextPacket().Len()]++
	}
	frac64 := float64(counts[64]) / float64(n)
	frac536 := float64(counts[536]) / float64(n)
	frac1360 := float64(counts[1360]) / float64(n)
	if math.Abs(frac64-0.6122) > 0.02 || math.Abs(frac536-0.2347) > 0.02 ||
		math.Abs(frac1360-0.1531) > 0.02 {
		t.Errorf("IMIX fractions = %.3f/%.3f/%.3f", frac64, frac536, frac1360)
	}
	if counts[64]+counts[536]+counts[1360] != n {
		t.Errorf("unexpected sizes: %v", counts)
	}
}

func TestUniformSizesWithinRange(t *testing.T) {
	g := NewGenerator(Config{Size: Uniform{Lo: 100, Hi: 200}, Seed: 5})
	for i := 0; i < 500; i++ {
		l := g.NextPacket().Len()
		if l < 100 || l > 200 {
			t.Fatalf("size %d outside [100,200]", l)
		}
	}
}

func TestTCPGeneration(t *testing.T) {
	g := NewGenerator(Config{TCP: true, Size: Fixed(64), Seed: 6})
	p := g.NextPacket()
	if p.L4Proto != netpkt.IPProtoTCP {
		t.Errorf("proto = %d", p.L4Proto)
	}
	if p.Len() != 64 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestIPv6Generation(t *testing.T) {
	g := NewGenerator(Config{IPv6: true, Size: Fixed(128), Seed: 7})
	p := g.NextPacket()
	if p.L3Proto != netpkt.ProtoIPv6 {
		t.Errorf("L3 = %#x", uint16(p.L3Proto))
	}
	if p.Len() != 128 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestFlowCountRespected(t *testing.T) {
	g := NewGenerator(Config{Flows: 8, Seed: 8})
	flows := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		flows[g.NextPacket().FlowID] = true
	}
	if len(flows) > 8 {
		t.Errorf("%d flows, want <= 8", len(flows))
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(Config{Flows: 100, ZipfS: 1.5, Seed: 9})
	counts := map[uint64]int{}
	for i := 0; i < 5000; i++ {
		counts[g.NextPacket().FlowID]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 0.2*5000 {
		t.Errorf("zipf top flow only %d/5000 packets; expected heavy skew", max)
	}
}

func TestPayloadProfiles(t *testing.T) {
	tokens := []string{"attack", "malware"}
	m, err := ac.NewMatcherStrings(tokens)
	if err != nil {
		t.Fatal(err)
	}

	full := NewGenerator(Config{
		Size: Fixed(256), Payload: PayloadFullMatch, MatchTokens: tokens, Seed: 10,
	})
	for i := 0; i < 50; i++ {
		p := full.NextPacket()
		if len(m.Scan(p.Payload())) == 0 {
			t.Fatalf("full-match payload %d has no pattern: %q", i, p.Payload())
		}
	}

	none := NewGenerator(Config{Size: Fixed(256), Payload: PayloadRandom, Seed: 11})
	hits := 0
	for i := 0; i < 50; i++ {
		if len(m.Scan(none.NextPacket().Payload())) > 0 {
			hits++
		}
	}
	if hits > 0 {
		t.Errorf("no-match traffic produced %d hits", hits)
	}
}

func TestBatches(t *testing.T) {
	g := NewGenerator(Config{Seed: 12})
	bs := g.Batches(3, 16)
	if len(bs) != 3 {
		t.Fatalf("batches = %d", len(bs))
	}
	ids := map[uint64]bool{}
	for _, b := range bs {
		if b.Len() != 16 {
			t.Errorf("batch len = %d", b.Len())
		}
		if ids[b.ID] {
			t.Errorf("duplicate batch id %d", b.ID)
		}
		ids[b.ID] = true
	}
}

func TestSizeDistNames(t *testing.T) {
	for _, c := range []struct {
		d    SizeDist
		want string
	}{
		{Fixed(64), "64B"}, {Fixed(128), "128B"}, {Fixed(1500), "1500B"},
		{Fixed(99), "fixed"}, {Uniform{1, 2}, "uniform"}, {IMIX{}, "IMIX"},
	} {
		if got := c.d.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
	// SizeDist implementations must never return < 0 even with a nil rng
	// guard; smoke-check Next with a real rng.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if (IMIX{}).Next(rng) < 64 {
			t.Fatal("IMIX produced tiny packet")
		}
	}
}

func TestRandomPayloadIsASCII(t *testing.T) {
	g := NewGenerator(Config{Size: Fixed(200), Seed: 13})
	p := g.NextPacket()
	s := string(p.Payload())
	if strings.ContainsRune(s, 0) {
		t.Error("payload contains NUL")
	}
}
