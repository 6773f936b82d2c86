package bench

import (
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
)

// Measurement couples the two quantities every figure reports.
type Measurement struct {
	Gbps float64
	// MeanLatencyUs and StdLatencyUs are measured at ~80% of the
	// saturation load, where queueing is stable (the paper offers fixed
	// load and reports the packet traveling time).
	MeanLatencyUs float64
	StdLatencyUs  float64
	// Result is the saturation-run result for overhead counters.
	Result *hetsim.Result
}

// measure runs a deployment twice: saturated (throughput) and at 80% load
// (latency). mkBatches must return a fresh identical workload each call —
// elements mutate packets, so runs cannot share batches.
func measure(p hetsim.Platform, costs map[string]hetsim.ElemCost,
	g *element.Graph, a hetsim.Assignment,
	mkBatches func() []*netpkt.Batch) (Measurement, error) {

	var m Measurement
	g.Reset()
	sim, err := hetsim.NewSimulator(p, costs, g, a)
	if err != nil {
		return m, err
	}
	sat := mkBatches()
	res, err := sim.Run(sat, 0)
	if err != nil {
		return m, err
	}
	m.Gbps = res.Throughput.Gbps()
	m.Result = res

	// 80%-load latency run.
	interarrival := 0.0
	if res.Throughput.Nanos > 0 && len(sat) > 1 {
		interarrival = float64(res.Throughput.Nanos) / float64(len(sat)) / 0.8
	}
	g.Reset()
	sim2, err := hetsim.NewSimulator(p, costs, g, a)
	if err != nil {
		return m, err
	}
	res2, err := sim2.Run(mkBatches(), interarrival)
	if err != nil {
		return m, err
	}
	m.MeanLatencyUs = res2.Latency.Mean() / 1e3
	m.StdLatencyUs = res2.Latency.StdDev() / 1e3
	return m, nil
}
