package bench

import (
	"fmt"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Algos compares the task allocator's partitioning algorithms — the
// "best tradeoff between practicality and accuracy" discussion of
// §IV-C-3: the modified-KL/multilevel partitioner against the light-weight
// O(k log k) agglomerative clustering (for "extreme diverse traffics and
// complicated SFCs") and the Stone max-flow/min-cut model, across chains
// of growing complexity. Reported per algorithm: allocation wall time,
// the partition objective, and the throughput the resulting deployment
// actually achieves in simulation.
func Algos(cfg Config) (*Table, error) {
	cfg.defaults()
	chains := []struct {
		name  string
		chain func() []*nf.NF
	}{
		{"IPsec", func() []*nf.NF { return []*nf.NF{mkIPsec("s")} }},
		{"IPsec+IDS", func() []*nf.NF {
			return []*nf.NF{mkIPsec("s"), mkIDS("i")}
		}},
		{"FW+IPv4+IPsec+IDS+NAT", func() []*nf.NF {
			return []*nf.NF{mkFirewall("f", 500), mkIPv4("r", cfg.Seed),
				mkIPsec("s"), mkIDS("i"), mkNAT("n")}
		}},
	}
	algos := []core.Algorithm{
		core.AlgoMultilevel, core.AlgoKL, core.AlgoAgglomerative, core.AlgoStone,
	}

	t := &Table{
		ID:      "algos",
		Title:   "Partitioning algorithms: alloc time / objective (ns per batch) / achieved Gbps",
		Headers: []string{"chain"},
	}
	for _, a := range algos {
		t.Headers = append(t.Headers, a.String())
	}

	mkBatches := func(seedOff int64) func() []*netpkt.Batch {
		return func() []*netpkt.Batch {
			gen := traffic.NewGenerator(traffic.Config{
				Size: traffic.Fixed(512), Seed: cfg.Seed + seedOff, Flows: 256,
			})
			return gen.Batches(cfg.Batches, cfg.BatchSize)
		}
	}

	for ci, c := range chains {
		row := []string{c.name}
		for _, algo := range algos {
			opt := core.DefaultOptions()
			opt.Parallelize, opt.Synthesize = false, false
			opt.Algorithm = algo
			start := time.Now()
			// Deploy and evaluate on the same traffic distribution (the
			// runtime profiles the traffic it serves), so algorithm
			// differences are not masked by workload drift.
			d, err := core.Deploy(c.chain(), hetsim.DefaultPlatform(),
				mkBatches(450+int64(ci))(), opt)
			if err != nil {
				return nil, err
			}
			allocMs := float64(time.Since(start).Microseconds()) / 1e3
			m, err := measure(hetsim.DefaultPlatform(), d.Costs, d.Graph, d.Assignment,
				mkBatches(450+int64(ci)))
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0fms/%.0f/%s",
				allocMs, d.Alloc.Cost, f2(m.Gbps)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"multilevel-KL is the accuracy reference; agglomerative trades objective for O(k log k) speed; stone optimizes sum-cost without balance")
	return t, nil
}
