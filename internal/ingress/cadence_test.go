package ingress

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// cadenceChain is src → chk → ttl → dst: all CPU it compiles into one stage
// loop behind which dst keeps its goroutine, and with chk and ttl on the
// emulated GPU the two fuse into one device-resident segment.
func cadenceChain(int) (*element.Graph, error) {
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	for _, el := range []element.Element{element.NewCheckIPHeader("chk"), element.NewDecTTL("ttl"), element.NewToDevice("dst")} {
		id := g.Add(el)
		g.MustConnect(prev, 0, id)
		prev = id
	}
	return g, nil
}

// cadenceCapture is n packets of which every 11th fails the IP checksum
// (chk drops it) and every 5th other arrives with TTL 1 (ttl drops it).
func cadenceCapture(t *testing.T, n int) (capt []byte, badSum, ttl1 uint64) {
	t.Helper()
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(96), Flows: 256, Seed: 23})
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		p := gen.NextPacket()
		p.Arrival = int64(i) * 10_000
		h := p.Data[p.L3Offset:]
		switch {
		case i%11 == 10:
			h[10] ^= 0xff
			badSum++
		case i%5 == 4:
			old := uint16(h[8])<<8 | uint16(h[9])
			h[8] = 1
			sum := netpkt.ChecksumUpdate16(uint16(h[10])<<8|uint16(h[11]), old, uint16(h[8])<<8|uint16(h[9]))
			h[10], h[11] = byte(sum>>8), byte(sum)
			ttl1++
		}
		pkts[i] = p
	}
	var buf bytes.Buffer
	if err := traffic.WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), badSum, ttl1
}

// TestObservationCadence pins the observation rule end to end: every count is
// exact on every batch, every clock-derived meter covers exactly the batches
// flight.Observed selects — the same ones whether the chain runs compiled,
// interpreted or fused on the device — an observed batch has its whole span
// chain source to sink and an unobserved one no span at all, and the e2e
// histogram stays exact, kept once by the replica.
func TestObservationCadence(t *testing.T) {
	const batches, perBatch = 1024, 8
	const n = batches * perBatch
	capt, badSum, ttl1 := cadenceCapture(t, n)
	observed := map[uint64]bool{}
	for id := uint64(0); id < batches; id++ {
		if flight.Observed(id) {
			observed[id] = true
		}
	}
	if len(observed) != batches/flight.Period() {
		t.Fatalf("rule observes %d of %d dense IDs, want 1 in %d", len(observed), batches, flight.Period())
	}

	type elem struct{ in, out, drops uint64 }
	wantElems := map[string]elem{
		"src": {n, n, 0},
		"chk": {n, n - badSum, badSum},
		"ttl": {n - badSum, n - badSum - ttl1, ttl1},
		"dst": {n - badSum - ttl1, n - badSum - ttl1, 0},
	}
	wantEdges := []uint64{n, n - badSum, n - badSum - ttl1}
	chain := []string{flight.StageRead, flight.StageInject, flight.StageConntrack,
		"nf:src", "nf:chk", "nf:ttl", "nf:dst", flight.StageRelease, flight.StageDrain}

	executions := []struct {
		name string
		cfg  dataplane.Config
	}{
		{"compiled", dataplane.Config{}},
		{"interpreted", dataplane.Config{DisableCompile: true}},
		{"fused", dataplane.Config{Assignment: hetsim.Assignment{1: {Mode: hetsim.ModeGPU}, 2: {Mode: hetsim.ModeGPU}}}},
	}
	for _, ex := range executions {
		t.Run(ex.name, func(t *testing.T) {
			rec := flight.New(flight.Config{})
			cfg := ex.cfg
			cfg.QueueDepth, cfg.Metrics, cfg.Flight = 4, true, rec
			nic := NewNIC(1)
			sp, err := dataplane.NewSharded(cadenceChain, dataplane.ShardedConfig{Shards: 1, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0)})
			defer src.Close()
			st, err := Pump(context.Background(), src, sp, nil, PumpConfig{
				BatchSize: perBatch, NIC: nic, FlowTTL: 1_000_000, Flight: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Batches != batches || st.Packets != n || st.Drops != badSum+ttl1 || rec.Ledger().Total() != 0 {
				t.Fatalf("pump: %+v; ledger %s", *st, rec.Ledger())
			}

			// Counts: exact on every batch, every element, every edge.
			rep := sp.Snapshot()
			for _, e := range rep.Elements {
				want := wantElems[e.Name]
				if e.Batches != batches || e.PktsIn != want.in || e.PktsOut != want.out || e.Drops != want.drops {
					t.Errorf("%s: batches=%d in=%d out=%d drops=%d, want %d and %+v",
						e.Name, e.Batches, e.PktsIn, e.PktsOut, e.Drops, batches, want)
				}
				// Timing: the observed IDs, on every element, in every execution.
				if e.Proc.Count != uint64(len(observed)) {
					t.Errorf("%s: %d timed batches, want the %d observed IDs", e.Name, e.Proc.Count, len(observed))
				}
			}
			for i, ed := range rep.Edges {
				if ed.Packets != wantEdges[i] {
					t.Errorf("edge %v: %d packets, want %d", ed.EdgeKey, ed.Packets, wantEdges[i])
				}
			}
			switch o := rep.Offload; ex.name {
			case "compiled":
				if o.CompiledBatches != batches || o.CompiledHopsSaved != 2*batches {
					t.Errorf("compiled %d batches, %d hops saved", o.CompiledBatches, o.CompiledHopsSaved)
				}
			case "fused":
				if o.FusedSegments != batches {
					t.Errorf("fused %d segment submissions, want %d", o.FusedSegments, batches)
				}
			}

			// e2e: exact, and kept once — by the one replica, whose report
			// is the snapshot's.
			if got := sp.E2E().Count; got != batches {
				t.Errorf("e2e histogram holds %d batches, want every one (%d)", got, batches)
			}
			if got := rep.E2E.Count; got != sp.E2E().Count {
				t.Errorf("replica's e2e count %d differs from the sharded E2E count %d", got, sp.E2E().Count)
			}

			// Spans: a complete chain per observed ID, nothing else.
			spans := map[string]map[uint64]flight.Span{}
			for _, s := range rec.Spans() {
				if !observed[s.Batch] {
					t.Fatalf("span on unobserved batch: %+v", s)
				}
				if spans[s.Stage] == nil {
					spans[s.Stage] = map[uint64]flight.Span{}
				}
				if _, dup := spans[s.Stage][s.Batch]; dup {
					t.Fatalf("second span for batch %d on %s", s.Batch, s.Stage)
				}
				spans[s.Stage][s.Batch] = s
			}
			for _, stage := range chain {
				if len(spans[stage]) != len(observed) {
					t.Errorf("%s: spans for %d batches, want all %d observed", stage, len(spans[stage]), len(observed))
				}
			}
			// The sweep that ran while flushing batch k is filed under k, not
			// under the next flush's ID: it starts after k's own injection.
			for id, ct := range spans[flight.StageConntrack] {
				if inj := spans[flight.StageInject][id]; ct.StartNs < inj.EndNs {
					t.Errorf("conntrack span of batch %d starts at %d, before its injection ended at %d", id, ct.StartNs, inj.EndNs)
				}
			}
			// Every lane counted every batch and recorded the observed ones.
			for _, row := range rec.Samples() {
				if row.Batches == 0 && row.Observed == 0 {
					continue // queue-only rows
				}
				if row.Batches != batches || row.Observed != uint64(len(observed)) {
					t.Errorf("lane %s/%d: %d batches, %d observed; want %d and %d",
						row.Stage, row.Lane, row.Batches, row.Observed, batches, len(observed))
				}
			}
		})
	}

	// The parallel pump draws batch IDs for every queue from one counter, so
	// a lane sees an arbitrary subset of them: each RX lane still observes
	// 1/Period of its own batches, ± 40 %.
	t.Run("parallel", func(t *testing.T) {
		const queues, perBatch, loops = 2, 4, 2
		rec := flight.New(flight.Config{})
		nic := NewNIC(queues)
		sp, err := dataplane.NewSharded(cadenceChain, dataplane.ShardedConfig{
			Shards:   queues,
			Config:   dataplane.Config{QueueDepth: 4, Metrics: true, Flight: rec},
			ShardOut: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0), Loops: loops})
		defer src.Close()
		st, err := Pump(context.Background(), src, sp, nil, PumpConfig{
			BatchSize: perBatch, NIC: nic, RXWorkers: queues, FlowTTL: 1_000_000, Flight: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.E2E().Count; got != st.Batches {
			t.Errorf("boundary e2e histogram holds %d of %d batches", got, st.Batches)
		}
		var lanes int
		for _, row := range rec.Samples() {
			if row.Stage != flight.StageRX {
				continue
			}
			lanes++
			want := float64(row.Batches) / float64(flight.Period())
			if row.Batches < 1024 || math.Abs(float64(row.Observed)-want) > 0.4*want {
				t.Errorf("rx lane %d observed %d of %d batches, want %.0f ± 40 %%", row.Lane, row.Observed, row.Batches, want)
			}
		}
		if lanes != queues {
			t.Errorf("%d rx lanes, want %d (%s)", lanes, queues, fmt.Sprint(st))
		}
	})
}
