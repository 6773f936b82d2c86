// Command nfcompass deploys a service function chain with the NFCompass
// pipeline on the simulated heterogeneous platform and reports what each
// phase did: the orchestrator's parallel stages, the synthesizer's
// removals, the task allocator's offload ratios, and the resulting
// throughput/latency versus CPU-only and GPU-only placements.
//
// Usage:
//
//	nfcompass [flags] <chain>
//
// where <chain> is a comma-separated NF list, e.g.
//
//	nfcompass -pkt 256 "firewall:1000,ipv4,nat,ids"
//
// Available NFs: see internal/spec (firewall[:rules], ipv4, ipv6, ipsec[:spi],
// ids, streamids, dpi, nat, lb[:backends], probe, proxy, wanopt).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
	"time"
)

func main() {
	pkt := flag.Int("pkt", 256, "packet size in bytes (0 = IMIX)")
	batches := flag.Int("batches", 120, "measurement batches")
	batchSize := flag.Int("batchsize", 64, "packets per batch")
	seed := flag.Int64("seed", 1, "traffic seed")
	noPar := flag.Bool("no-parallelize", false, "disable SFC parallelization")
	noSyn := flag.Bool("no-synthesize", false, "disable NF synthesis")
	noGTA := flag.Bool("no-gta", false, "disable graph-partition task allocation")
	algo := flag.String("algo", "multilevel", "partitioner: multilevel|kl|agglomerative|stone")
	pcapIn := flag.String("pcap", "", "replay this pcap capture instead of synthetic traffic")
	metrics := flag.Bool("metrics", false,
		"run the deployed graph on the live dataplane with per-element metrics and print the snapshot plus a Prometheus-text dump")
	shards := flag.Int("shards", 1,
		"dataplane replicas of the -metrics, -source and -serve runs: packets are steered by flow affinity and the snapshot aggregates across shards (0 = one per CPU)")
	assign := flag.Bool("assign", false,
		"print the task allocator's report (algorithm, objective, cut/load split, per-element offload ratios) and execute the chain on the live dataplane under that assignment: ModeGPU/ModeSplit elements run through the emulated GPU device backend")
	source := flag.String("source", "",
		"drive the chain from the ingress plane: pcap:FILE (capture replay), udp:ADDR (one frame per datagram), or nic:queues=N[,pcap=FILE] (emulated RSS NIC, per-queue injection into N shards; N > 1 runs one reader and one RX worker per queue)")
	pin := flag.Bool("pin", false,
		"lock each shard's element goroutines to dedicated OS threads (runtime.LockOSThread) in the -source run")
	loops := flag.Int("loops", 1,
		"replay passes over the -source capture; passes after the first present rekeyed flows (sustained churn)")
	pps := flag.Float64("pps", 0,
		"pace the -source capture replay at this packet rate (0 = as fast as the pipeline pulls)")
	serve := flag.String("serve", "",
		"run the chain continuously on the live dataplane and serve the telemetry plane (/metrics /snapshot /healthz /trace.chrome /spans /bottleneck /decisions /debug/pprof) on this address, e.g. :9090")
	fleet := flag.Bool("fleet", false,
		"with -serve: run the multi-tenant control plane instead of a fixed deployment — the chain argument becomes tenant \"default\" revision 1, and the admin server additionally mounts the /chains endpoints for nfctl (submit, status, rollout watch, rollback)")
	duration := flag.Duration("duration", 30*time.Second,
		"length of the -serve continuous run; the traffic profile shifts halfway through so the adaptor has a drift to react to (0 = run until interrupted)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nfcompass [flags] <chain>\n"+
			"e.g.: nfcompass -pkt 256 \"firewall:1000,ipv4,nat,ids\"\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// -duration and -shards have non-zero defaults, so "was it given" is
	// the question to ask of them.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkModes(modeFlags{
		source: *source, serve: *serve, pcap: *pcapIn,
		fleet: *fleet, assign: *assign, metrics: *metrics,
		pin: *pin, loops: *loops, pps: *pps,
		durationSet: set["duration"], shardsSet: set["shards"],
	}); err != nil {
		fmt.Fprintln(os.Stderr, "nfcompass:", err)
		os.Exit(2)
	}
	*shards = liveShards(*shards)

	chain, err := spec.Parse(flag.Arg(0), *seed)
	if err != nil {
		fatal(err)
	}

	// Multi-tenant control-plane mode: hand the chain to the rollout
	// coordinator and serve the /chains surface (see fleet.go).
	if *fleet {
		if err := runFleet(fleetOpts{
			addr: *serve, chain: flag.Arg(0), duration: *duration,
			shards: *shards, pkt: *pkt, seed: *seed, offload: !*noGTA,
		}); err != nil {
			fatal(err)
		}
		return
	}

	opt := core.DefaultOptions()
	opt.Parallelize = !*noPar
	opt.Synthesize = !*noSyn
	opt.GTA = !*noGTA
	opt.BatchSize = *batchSize
	switch *algo {
	case "multilevel":
		opt.Algorithm = core.AlgoMultilevel
	case "kl":
		opt.Algorithm = core.AlgoKL
	case "agglomerative":
		opt.Algorithm = core.AlgoAgglomerative
	case "stone":
		opt.Algorithm = core.AlgoStone
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	p := hetsim.DefaultPlatform()
	var replay []*netpkt.Batch
	if *pcapIn != "" {
		f, err := os.Open(*pcapIn)
		if err != nil {
			fatal(err)
		}
		replay, err = traffic.BatchesFromPcap(f, *batchSize)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(replay) == 0 {
			fatal(fmt.Errorf("capture %s holds no packets", *pcapIn))
		}
	}
	mkBatches := func(off int64) []*netpkt.Batch {
		if replay != nil {
			out := make([]*netpkt.Batch, len(replay))
			for i, b := range replay {
				out[i] = b.Clone()
			}
			return out
		}
		var size traffic.SizeDist = traffic.IMIX{}
		if *pkt > 0 {
			size = traffic.Fixed(*pkt)
		}
		gen := traffic.NewGenerator(traffic.Config{
			Size: size, Seed: *seed + off, Flows: 256,
		})
		return gen.Batches(*batches, *batchSize)
	}

	// The one deployment of the run. Every live plane runs replicas from
	// d.Build; d.Graph stays the control path's (the simulator's and the
	// adaptor's).
	var sample []*netpkt.Batch
	if opt.GTA {
		sample = mkBatches(1000)
	}
	d, err := core.Deploy(chain, p, sample, opt)
	if err != nil {
		fatal(err)
	}

	// Report the pipeline's decisions.
	fmt.Printf("chain: %s\n", flag.Arg(0))
	fmt.Print(d.Describe())

	// Ingress mode: replay a packet source through the deployed chain and
	// report the run (see source.go).
	if *source != "" {
		if err := runSource(d.Build, sourceOpts{
			spec: *source, shards: *shards, pin: *pin,
			loops: *loops, pps: *pps,
			batchSize: *batchSize, mkBatches: mkBatches,
		}); err != nil {
			fatal(err)
		}
		return
	}

	// Continuous telemetry mode: skip the batch comparisons and keep the
	// deployment running on the live dataplane behind the admin server.
	if *serve != "" {
		if err := runServe(d, serveOpts{
			addr: *serve, duration: *duration, shards: *shards,
			pkt: *pkt, batchSize: *batchSize, seed: *seed,
		}); err != nil {
			fatal(err)
		}
		return
	}

	// Measure NFCompass against single-processor placements of the same
	// graph.
	type runRes struct {
		name string
		a    hetsim.Assignment
	}
	runs := []runRes{
		{"NFCompass", d.Assignment},
		{"CPU-only", nil},
		{"GPU-only", hetsim.GPUHeavy(d.Graph)},
	}
	fmt.Printf("\n%-10s  %10s  %12s\n", "placement", "Gbps", "p50 latency")
	for _, r := range runs {
		sim, err := hetsim.NewSimulator(p, d.Costs, d.Graph, r.a)
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(mkBatches(2000), 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s  %10.2f  %10.1fus\n", r.name,
			res.Throughput.Gbps(), res.Latency.Percentile(50)/1e3)
		d.Graph.Reset()
	}

	// Placement-aware run: print what the allocator decided, then execute
	// one replica of the graph on the live dataplane under that assignment —
	// offloaded elements go through the emulated GPU device backend
	// (submission queues, launch aggregation, modeled PCIe/launch latency).
	if *assign {
		if d.Alloc == nil {
			fatal(fmt.Errorf("-assign requires task allocation (drop -no-gta)"))
		}
		rep := d.Alloc
		fmt.Printf("\ntask allocation (%s", rep.Algorithm)
		if rep.Selected != "" {
			fmt.Printf(", validated winner %q", rep.Selected)
		}
		fmt.Printf("):\n  objective=%.0fns cut=%.0fns cpu-load=%.0fns gpu-load=%.0fns instances=%d\n",
			rep.Cost, rep.CutNs, rep.CPULoadNs, rep.GPULoadNs, rep.Instances)
		if len(rep.OffloadByElement) > 0 {
			names := make([]string, 0, len(rep.OffloadByElement))
			for name := range rep.OffloadByElement {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Printf("  offload ratios:\n")
			for _, name := range names {
				fmt.Printf("    %-24s %.2f\n", name, rep.OffloadByElement[name])
			}
		}
		sp, err := runLive(d, dataplane.Config{
			Metrics:    true,
			Assignment: d.Assignment,
		}, 1, mkBatches(4000))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nplacement-aware dataplane run:\n%s", sp.Snapshot())
	}

	// Live observability run: execute -shards replicas of the deployment
	// graph for real on the concurrent dataplane with the per-element
	// metrics layer on, then dump the aggregated snapshot and its
	// Prometheus-text form.
	if *metrics {
		sp, err := runLive(d, dataplane.Config{Metrics: true}, *shards, mkBatches(3000))
		if err != nil {
			fatal(err)
		}
		rep := sp.Snapshot()
		fmt.Printf("\nsharded dataplane: %d flow-affinity replicas, aggregated snapshot\n",
			sp.NumShards())
		fmt.Printf("\nlive dataplane metrics:\n%s", rep)
		fmt.Printf("\n# Prometheus text exposition\n")
		rep.WritePrometheus(os.Stdout)
	}
}

// runLive runs batches through replicas of the deployment on the sharded
// dataplane, the NIC steering each flow to one replica, and returns the
// drained plane for its snapshot.
func runLive(d *core.Deployment, cfg dataplane.Config, shards int, batches []*netpkt.Batch) (*dataplane.ShardedPipeline, error) {
	sp, err := dataplane.NewSharded(d.Build, dataplane.ShardedConfig{Config: cfg, Shards: shards})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sp.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sp.Out() {
		}
	}()
	nic := ingress.NewNIC(sp.NumShards())
	for _, b := range batches {
		if !nic.Steer(ctx, sp, b) {
			break // the pipeline stopped; Wait reports why
		}
	}
	sp.CloseInput()
	<-drained
	return sp, sp.Wait()
}

// modeFlags are the parsed flag values that select, or only work in, one
// run mode.
type modeFlags struct {
	source, serve, pcap         string
	fleet, assign, metrics, pin bool
	loops                       int
	pps                         float64
	durationSet, shardsSet      bool // the flag was given, whatever its value
}

// checkModes rejects the flag combinations in which one flag would be
// silently ignored: the run modes (-source, -serve, -serve -fleet, and the
// default batch comparison with its -assign/-metrics runs) are exclusive.
func checkModes(f modeFlags) error {
	for _, r := range []struct {
		bad bool
		why string
	}{
		{f.fleet && f.serve == "", "-fleet requires -serve ADDR"},
		{f.fleet && f.source != "", "-fleet and -source are exclusive: the control plane drives its tenants' traffic itself"},
		{f.fleet && f.assign, "-fleet and -assign are exclusive: tenants are placed per revision by the control plane"},
		{f.fleet && f.metrics, "-fleet and -metrics are exclusive: read the fleet's metrics from the served /metrics"},
		{f.fleet && f.pcap != "", "-fleet and -pcap are exclusive: the control plane profiles each revision on synthetic traffic"},
		{f.source != "" && f.serve != "", "-source and -serve are exclusive: -source replays one packet source to its end, -serve generates traffic for -duration"},
		{f.pin && f.source == "", "-pin requires -source: only the ingress run pins shard goroutines"},
		{f.loops != 1 && f.source == "", "-loops requires -source: it counts passes over the ingress capture"},
		{f.pps != 0 && f.source == "", "-pps requires -source: it paces the ingress capture replay"},
		{f.durationSet && f.serve == "", "-duration requires -serve: only the continuous run has a length"},
		{f.shardsSet && !f.metrics && f.source == "" && f.serve == "", "-shards requires -metrics, -source or -serve: the batch comparison runs no live dataplane"},
	} {
		if r.bad {
			return errors.New(r.why)
		}
	}
	return nil
}

// liveShards is the replica count of every live run for a -shards value:
// 0 (or less) means one per CPU, as dataplane.DefaultShards counts them.
func liveShards(n int) int {
	if n <= 0 {
		return dataplane.DefaultShards()
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nfcompass:", err)
	os.Exit(1)
}
