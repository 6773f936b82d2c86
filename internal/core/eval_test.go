package core

import (
	"reflect"
	"testing"

	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

func cloneAll(in []*netpkt.Batch) []*netpkt.Batch {
	out := make([]*netpkt.Batch, len(in))
	for i, b := range in {
		out[i] = b.Clone()
	}
	return out
}

// Model outputs are a function of (chain, sample), not of how many
// evaluation passes ran before: after Graph.Reset a pass over the same
// sample prices exactly what the first pass priced (IPsecSeal's sequence
// numbers are ciphertext, and ciphertext is what the scanner behind it
// walks), and deploying one chain value twice decides the same thing.
func TestEvaluationIsHermetic(t *testing.T) {
	p := hetsim.DefaultPlatform()
	for _, text := range []string{"ipsec,ids", "ipsec,ipv4,ids"} {
		t.Run(text, func(t *testing.T) {
			chain, err := spec.Parse(text, 1)
			if err != nil {
				t.Fatal(err)
			}
			sample := traffic.NewGenerator(traffic.Config{
				Size: traffic.Fixed(512), Seed: 7, Flows: 64,
				Payload: traffic.PayloadRandom, MatchTokens: spec.DefaultPatterns,
			}).Batches(12, 32)

			deploy := func() (*Deployment, *hetsim.Result) {
				d, err := Deploy(chain, p, cloneAll(sample), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Simulate(cloneAll(sample), 0)
				if err != nil {
					t.Fatal(err)
				}
				d.Graph.Reset()
				return d, res
			}
			d1, first := deploy()
			again, err := d1.Simulate(cloneAll(sample), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("Simulate, Reset, Simulate on one sample: %.6f then %.6f Gbps, want identical results",
					first.Throughput.Gbps(), again.Throughput.Gbps())
			}
			d2, second := deploy()
			if !reflect.DeepEqual(d1.Assignment, d2.Assignment) || !reflect.DeepEqual(d1.Alloc, d2.Alloc) {
				t.Errorf("two Deploys of one chain: %v / %+v, then %v / %+v", d1.Assignment, d1.Alloc, d2.Assignment, d2.Alloc)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("post-Deploy Simulate: %.6f then %.6f Gbps", first.Throughput.Gbps(), second.Throughput.Gbps())
			}
		})
	}
}
