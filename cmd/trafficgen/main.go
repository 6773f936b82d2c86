// Command trafficgen emits synthetic traffic traces from the workload
// models used in the experiments (fixed sizes, uniform, IMIX, TCP streams,
// IPv6, DPI payload profiles). Output is a textual one-line-per-packet
// trace (offset, length, 5-tuple, flow) or a raw hex dump of packet bytes,
// suitable for feeding external tools or inspecting what the evaluation
// traffic looks like.
//
// It can also serialize the trace to a pcap file (-pcap) or emit the raw
// frames as UDP datagrams (-udp ADDR, optionally paced with -pps) — the
// sending side of nfcompass's `-source udp:ADDR` ingress mode.
//
// Usage:
//
//	trafficgen [-n N] [-size 64|imix|uniform] [-tcp] [-ipv6] [-match]
//	           [-seed N] [-hex] [-pcap FILE] [-udp ADDR [-pps N] [-workers W]]
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

func main() {
	n := flag.Int("n", 100, "packets to generate")
	sizeSpec := flag.String("size", "64", "packet size: bytes, 'imix', or 'uniform'")
	tcp := flag.Bool("tcp", false, "TCP segments instead of UDP")
	ipv6 := flag.Bool("ipv6", false, "IPv6 instead of IPv4")
	match := flag.Bool("match", false, "embed IDS-matching payload content")
	seed := flag.Int64("seed", 1, "generator seed")
	flows := flag.Int("flows", 64, "distinct flows")
	hexDump := flag.Bool("hex", false, "dump raw packet bytes as hex")
	pcapOut := flag.String("pcap", "", "write packets to this pcap file instead of text")
	udpOut := flag.String("udp", "", "emit packets as UDP datagrams (one frame per datagram) to this address — the wire feeding nfcompass -source udp:ADDR")
	pps := flag.Float64("pps", 0, "pace -udp emission at this packet rate (0 = as fast as possible; with -workers, the rate each worker sends at)")
	workers := flag.Int("workers", 1, "concurrent -udp senders, each with its own socket and flow space — pairs with the receiver's multi-socket reader pool")
	flag.Parse()

	var size traffic.SizeDist
	switch *sizeSpec {
	case "imix":
		size = traffic.IMIX{}
	case "uniform":
		size = traffic.Uniform{Lo: 64, Hi: 1500}
	default:
		var v int
		if _, err := fmt.Sscanf(*sizeSpec, "%d", &v); err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "trafficgen: bad size %q\n", *sizeSpec)
			os.Exit(2)
		}
		size = traffic.Fixed(v)
	}

	payload := traffic.PayloadRandom
	if *match {
		payload = traffic.PayloadFullMatch
	}
	genCfg := traffic.Config{
		Size: size, TCP: *tcp, IPv6: *ipv6,
		Payload: payload, MatchTokens: []string{"attack", "malware"},
		Seed: *seed, Flows: *flows,
	}
	gen := traffic.NewGenerator(genCfg)

	if *udpOut != "" {
		w := *workers
		if w < 1 {
			w = 1
		}
		// Each worker dials its own socket (distinct source port, so a
		// reuseport receiver pool spreads the workers) and generates from
		// its own seed, keeping the workers' flow spaces disjoint.
		var (
			wg          sync.WaitGroup
			sent, bytes atomic.Int64
			failed      atomic.Bool
		)
		start := time.Now()
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				cfg := genCfg
				cfg.Seed = genCfg.Seed + int64(wi)*0x9e3779b9
				g := traffic.NewGenerator(cfg)
				conn, err := net.Dial("udp", *udpOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, "trafficgen:", err)
					failed.Store(true)
					return
				}
				defer conn.Close()
				var interval time.Duration
				if *pps > 0 {
					interval = time.Duration(float64(time.Second) / *pps)
				}
				count := *n / w
				if wi < *n%w {
					count++
				}
				for i := 0; i < count; i++ {
					p := g.NextPacket()
					if _, err := conn.Write(p.Data); err != nil {
						fmt.Fprintln(os.Stderr, "trafficgen:", err)
						failed.Store(true)
						return
					}
					sent.Add(1)
					bytes.Add(int64(p.Len()))
					if interval > 0 {
						// Pace against the wall clock so short write times
						// don't drift.
						if next := start.Add(time.Duration(i+1) * interval); time.Until(next) > 0 {
							time.Sleep(time.Until(next))
						}
					}
				}
			}(wi)
		}
		wg.Wait()
		el := time.Since(start)
		fmt.Fprintf(os.Stderr, "trafficgen: sent %d datagrams (%d bytes) to %s from %d workers in %v (%.0f pps)\n",
			sent.Load(), bytes.Load(), *udpOut, w, el.Round(time.Millisecond), float64(sent.Load())/el.Seconds())
		if failed.Load() {
			os.Exit(1)
		}
		return
	}

	if *pcapOut != "" {
		pkts := make([]*netpkt.Packet, *n)
		for i := range pkts {
			pkts[i] = gen.NextPacket()
			pkts[i].Arrival = int64(i) * 1000 // 1 us spacing
		}
		f, err := os.Create(*pcapOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trafficgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := traffic.WritePcap(f, pkts); err != nil {
			fmt.Fprintln(os.Stderr, "trafficgen:", err)
			os.Exit(1)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i := 0; i < *n; i++ {
		p := gen.NextPacket()
		if *hexDump {
			fmt.Fprintln(w, hex.EncodeToString(p.Data))
			continue
		}
		describe(w, i, p)
	}
}

func describe(w *bufio.Writer, i int, p *netpkt.Packet) {
	switch p.L3Proto {
	case netpkt.ProtoIPv4:
		ip, err := netpkt.ParseIPv4(p.L3())
		if err != nil {
			fmt.Fprintf(w, "%6d len=%d unparsable: %v\n", i, p.Len(), err)
			return
		}
		sport, dport := ports(p)
		fmt.Fprintf(w, "%6d len=%4d proto=%-2d %v:%d -> %v:%d flow=%d\n",
			i, p.Len(), ip.Protocol, ip.Src, sport, ip.Dst, dport, p.FlowID)
	case netpkt.ProtoIPv6:
		ip, err := netpkt.ParseIPv6(p.L3())
		if err != nil {
			fmt.Fprintf(w, "%6d len=%d unparsable: %v\n", i, p.Len(), err)
			return
		}
		sport, dport := ports(p)
		fmt.Fprintf(w, "%6d len=%4d proto=%-2d [%v]:%d -> [%v]:%d flow=%d\n",
			i, p.Len(), ip.NextHeader, ip.Src, sport, ip.Dst, dport, p.FlowID)
	default:
		fmt.Fprintf(w, "%6d len=%d ethertype=%#04x\n", i, p.Len(), uint16(p.L3Proto))
	}
}

func ports(p *netpkt.Packet) (uint16, uint16) {
	l4 := p.L4()
	if len(l4) < 4 {
		return 0, 0
	}
	return uint16(l4[0])<<8 | uint16(l4[1]), uint16(l4[2])<<8 | uint16(l4[3])
}
