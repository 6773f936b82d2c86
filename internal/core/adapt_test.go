package core

import (
	"testing"

	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// idsSample generates traffic with the given DPI payload profile.
func idsSample(profile traffic.PayloadProfile, seed int64, n int) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.Fixed(512), Payload: profile,
		MatchTokens: []string{"attack", "malware", "exploit"},
		Seed:        seed, Flows: 64,
	})
	return gen.Batches(n, 64)
}

func adaptDeployment(t *testing.T) *Deployment {
	t.Helper()
	chain := []*nf.NF{
		nf.NewIDS("ids", []string{"attack", "malware", "exploit"}, false),
	}
	d, err := Deploy(chain, hetsim.DefaultPlatform(),
		idsSample(traffic.PayloadRandom, 1, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAdaptorStableTrafficNoReallocation(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	// Prime, then observe the same traffic profile repeatedly.
	for i := 0; i < 3; i++ {
		changed, err := a.Observe(idsSample(traffic.PayloadRandom, int64(10+i), 4))
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatalf("observation %d re-allocated on stable traffic", i)
		}
	}
	if a.Reallocations != 0 {
		t.Errorf("Reallocations = %d", a.Reallocations)
	}
}

func TestAdaptorContentShiftTriggersReallocation(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	if _, err := a.Observe(idsSample(traffic.PayloadRandom, 20, 4)); err != nil {
		t.Fatal(err) // primes the signature
	}
	// Same flows, same sizes — but every payload now matches: the DFA
	// walk depth explodes, which only the probe counters can see.
	changed, err := a.Observe(idsSample(traffic.PayloadFullMatch, 21, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("full-match shift did not trigger re-allocation")
	}
	if a.Reallocations != 1 {
		t.Errorf("Reallocations = %d", a.Reallocations)
	}
	// The refreshed assignment must still drive a valid simulation.
	res, err := d.Simulate(idsSample(traffic.PayloadFullMatch, 22, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted == 0 {
		t.Error("nothing emitted after re-allocation")
	}
}

func TestAdaptorReallocationImprovesShiftedTraffic(t *testing.T) {
	d := adaptDeployment(t)
	// Throughput of the original (no-match-tuned) assignment under
	// full-match traffic.
	before, err := d.Simulate(idsSample(traffic.PayloadFullMatch, 30, 20), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Graph.Reset()

	a := NewAdaptor(d)
	if _, err := a.Observe(idsSample(traffic.PayloadRandom, 31, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Observe(idsSample(traffic.PayloadFullMatch, 32, 4)); err != nil {
		t.Fatal(err)
	}
	after, err := d.Simulate(idsSample(traffic.PayloadFullMatch, 30, 20), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full-match throughput: before adapt %.2f, after %.2f Gbps",
		before.Throughput.Gbps(), after.Throughput.Gbps())
	if after.Throughput.Gbps() < before.Throughput.Gbps()*0.95 {
		t.Errorf("re-allocation regressed: %.2f -> %.2f",
			before.Throughput.Gbps(), after.Throughput.Gbps())
	}
}

func TestAdaptorEmptySampleRejected(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	if _, err := a.Observe(nil); err == nil {
		t.Error("empty sample accepted")
	}
}
