package main

// The -source run mode: execute the deployed chain behind the ingress
// plane instead of pre-batched in-memory traffic. The spec selects the
// packet source:
//
//	-source pcap:trace.pcap         replay a capture
//	-source udp::9000               receive frames on a UDP socket
//	-source nic:queues=4            replay a synthetic trace, one reader per queue
//	-source nic:queues=4,pcap=trace.pcap
//
// Every source feeds an emulated RSS NIC with one queue per pipeline shard
// (-shards, or queues= in nic mode), and each queue injects straight into
// its own shard (InjectShard); the shards run the deployment under its
// placement (newLivePlane). nic mode also splits a looped replay into up
// to one reader per queue; pcap: and udp: run one reader. Without pcap= it
// replays a synthetic in-memory trace built from the traffic flags. -pin
// locks every shard's element goroutines, and every reader and RX worker
// goroutine, to OS threads.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

type sourceOpts struct {
	spec      string
	shards    int // >= 1: liveShards resolved the flag
	pin       bool
	loops     int
	pps       float64
	batchSize int
	mkBatches func(off int64) []*netpkt.Batch
}

// parseSourceSpec resolves the -source flag into a Source, the NIC nic mode
// builds (nil otherwise: Pump builds one per shard count) and the shard
// count.
func parseSourceSpec(o sourceOpts) (ingress.Source, *ingress.NIC, int, error) {
	kind, rest, _ := strings.Cut(o.spec, ":")
	switch kind {
	case "pcap":
		if rest == "" {
			return nil, nil, 0, fmt.Errorf("-source pcap: needs a file path")
		}
		src, err := ingress.PcapFileSource(rest, ingress.PcapConfig{
			Loops: o.loops, PacePPS: o.pps,
		})
		return src, nil, o.shards, err
	case "udp":
		if rest == "" {
			return nil, nil, 0, fmt.Errorf("-source udp: needs a listen address")
		}
		src, err := ingress.NewUDPSource(rest, netpkt.NewArena())
		if err == nil {
			fmt.Printf("ingress: listening on %s (one datagram = one frame)\n", src.LocalAddr())
		}
		return src, nil, o.shards, err
	case "nic":
		queues, pcapPath := 0, ""
		for _, kv := range strings.Split(rest, ",") {
			k, v, _ := strings.Cut(kv, "=")
			switch k {
			case "queues":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, nil, 0, fmt.Errorf("-source nic: bad queues=%q", v)
				}
				queues = n
			case "pcap":
				pcapPath = v
			default:
				return nil, nil, 0, fmt.Errorf("-source nic: unknown option %q", k)
			}
		}
		if queues == 0 {
			queues = o.shards
		}
		nic := ingress.NewNIC(queues)
		cfg := ingress.PcapConfig{Loops: o.loops, PacePPS: o.pps, Arena: nic.Arena(0)}
		if pcapPath != "" {
			src, err := ingress.PcapFileSource(pcapPath, cfg)
			return src, nic, queues, err
		}
		// No capture given: replay a synthetic trace from the traffic flags.
		var buf bytes.Buffer
		pw, err := traffic.NewPcapWriter(&buf)
		if err != nil {
			return nil, nil, 0, err
		}
		for i, b := range o.mkBatches(5000) {
			for j, p := range b.Packets {
				p.Arrival = int64(i*len(b.Packets)+j) * 1000
				if err := pw.WritePacket(p); err != nil {
					return nil, nil, 0, err
				}
			}
		}
		capt := buf.Bytes()
		src, err := ingress.NewPcapSource(func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(capt)), nil
		}, cfg)
		return src, nic, queues, err
	default:
		return nil, nil, 0, fmt.Errorf("-source: unknown kind %q (want pcap:|udp:|nic:)", kind)
	}
}

// runSource drives the deployment's live plane from an ingress source,
// prints the replay statistics and the plane's report, and returns the
// drained plane.
func runSource(d *core.Deployment, o sourceOpts) (*dataplane.ShardedPipeline, error) {
	src, nic, shards, err := parseSourceSpec(o)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	// The pump's shape follows the input: one reader in front of one queue
	// injects inline; anything else runs one RX worker per queue behind SPSC
	// rings, and the shards drain through per-shard channels.
	readers := 1
	if nic != nil {
		readers = nic.Queues()
	}
	lp, err := newLivePlane(d, shards, o.pin)
	if err != nil {
		return nil, err
	}
	mode := "one reader injecting inline"
	if shards > 1 {
		mode = fmt.Sprintf("<=%d readers, %d RX queue workers behind SPSC rings, per-shard drains", readers, shards)
	}
	fmt.Printf("ingress: source=%s shards=%d pin=%v mode=%s\n", o.spec, shards, o.pin, mode)

	// Ctrl-C closes the source: Next returns io.EOF, Pump drains the
	// pipeline, and the replay statistics below still print.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Println("ingress: interrupt — draining")
			src.Close()
		}
	}()

	lp.smp.Start()
	st, err := ingress.Pump(context.Background(), src, lp.sp, nil, ingress.PumpConfig{
		BatchSize:  o.batchSize,
		NIC:        nic,
		FlowTTL:    int64(60 * time.Second),
		RXWorkers:  readers,
		PinWorkers: o.pin,
		Flight:     lp.rec,
	})
	lp.smp.Stop()
	if err != nil {
		return nil, err
	}
	fmt.Printf("\ningress replay: %d packets (%d batches, %.1f MB) in %v = %.0f pps (%d readers, %d queue workers)\n",
		st.Packets, st.Batches, float64(st.Bytes)/1e6, st.Duration.Round(time.Millisecond), st.PPS,
		st.Readers, st.Workers)
	fmt.Printf("  flows: %d distinct, %d peak concurrent, %d expired (60s TTL), %d evicted at the bound\n",
		st.Flows, st.PeakFlows, st.ExpiredFlows, st.EvictedFlows)
	fmt.Printf("  output: %d forwarded, %d dropped, p99 e2e %v\n",
		st.OutPackets, st.Drops, st.E2ELabel())
	lp.report()
	return lp.sp, nil
}
