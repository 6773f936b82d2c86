package nf

import (
	"fmt"

	"nfcompass/internal/ac"
	"nfcompass/internal/element"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/netpkt"
)

// TCPReassembly re-establishes per-flow TCP segment order: in-order
// segments pass through, out-of-order ones are buffered until the gap
// fills. It is the "buffering-based approach" of §III-B-1-b — stateful
// processing "requires a large amount of memory budget and may
// significantly increase the latency of traffics" — and the element
// exposes exactly those costs (buffered segments, held bytes, releases).
type TCPReassembly struct {
	name string
	// flows bounds the per-flow reassembly contexts (LRU eviction: the
	// memory budget of §III-B-1-b made explicit).
	flows *flowtable.Table[*flowState]
	// MaxBuffered bounds per-flow buffering; overflowing segments are
	// dropped (as a real reassembler under memory pressure would).
	MaxBuffered int

	Buffered  uint64 // segments that had to wait
	Released  uint64 // segments released after a gap filled
	Overflows uint64 // segments dropped to the buffer bound
	HeldBytes uint64 // current buffered payload bytes
}

// reassemblyFlowCapacity bounds tracked flows per reassembler.
const reassemblyFlowCapacity = 8192

type flowState struct {
	nextSeq uint32
	started bool
	held    map[uint32]*netpkt.Packet // seq -> packet
}

// NewTCPReassembly builds the reassembler (default bound: 64 segments per
// flow, 8192 tracked flows).
func NewTCPReassembly(name string) *TCPReassembly {
	e := &TCPReassembly{MaxBuffered: 64, name: name}
	e.flows = flowtable.New[*flowState](reassemblyFlowCapacity)
	e.flows.OnEvict = func(_ uint64, fs *flowState) {
		// Release the evicted flow's held bytes from the budget.
		for _, p := range fs.held {
			e.HeldBytes -= uint64(len(p.Payload()))
		}
	}
	return e
}

// Name implements element.Element.
func (e *TCPReassembly) Name() string { return e.name }

// Traits implements element.Element.
func (e *TCPReassembly) Traits() element.Traits {
	return element.Traits{
		Kind: "TCPReassembly", Class: element.ClassShaper,
		ReadsHeader: true, Stateful: true, CanDrop: true,
	}
}

// NumOutputs implements element.Element.
func (e *TCPReassembly) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *TCPReassembly) Signature() string { return "TCPReassembly" }

// Process implements element.Element: the output batch carries the input's
// in-order packets plus any buffered packets their arrival released, in
// stream order.
func (e *TCPReassembly) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := b.Derive(nil)
	for _, p := range b.Packets {
		if p.Dropped {
			out.Packets = append(out.Packets, p)
			continue
		}
		if p.L4Proto != netpkt.IPProtoTCP || p.L4Offset < 0 {
			out.Packets = append(out.Packets, p) // non-TCP passes through
			continue
		}
		tcp, err := netpkt.ParseTCP(p.L4())
		if err != nil {
			p.Drop(e.name)
			out.Packets = append(out.Packets, p)
			continue
		}
		fs, _ := e.flows.GetOrCreate(p.FlowID, func() *flowState {
			return &flowState{held: make(map[uint32]*netpkt.Packet)}
		})
		if !fs.started {
			fs.started = true
			fs.nextSeq = tcp.Seq
		}
		payloadLen := uint32(len(p.Payload()))

		switch {
		case tcp.Seq == fs.nextSeq:
			out.Packets = append(out.Packets, p)
			fs.nextSeq += payloadLen
			e.drain(fs, out)
		case seqBefore(tcp.Seq, fs.nextSeq):
			// Retransmission of already-delivered data: drop.
			p.Drop(e.name + "/retransmit")
			out.Packets = append(out.Packets, p)
		default:
			if len(fs.held) >= e.MaxBuffered {
				e.Overflows++
				p.Drop(e.name + "/overflow")
				out.Packets = append(out.Packets, p)
				continue
			}
			fs.held[tcp.Seq] = p
			e.Buffered++
			e.HeldBytes += uint64(payloadLen)
		}
	}
	return []*netpkt.Batch{out}
}

// drain releases consecutively-held segments after the gap closed.
func (e *TCPReassembly) drain(fs *flowState, out *netpkt.Batch) {
	for {
		p, ok := fs.held[fs.nextSeq]
		if !ok {
			return
		}
		delete(fs.held, fs.nextSeq)
		out.Packets = append(out.Packets, p)
		plen := uint32(len(p.Payload()))
		e.HeldBytes -= uint64(plen)
		e.Released++
		fs.nextSeq += plen
	}
}

// seqBefore is TCP sequence-space comparison (RFC 1982-style wraparound).
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Reset implements element.Resetter.
func (e *TCPReassembly) Reset() {
	e.flows.Reset()
	e.Buffered, e.Released, e.Overflows, e.HeldBytes = 0, 0, 0, 0
}

// StreamAhoCorasick scans reassembled flows with per-flow resumable
// automaton state, catching patterns that span segment boundaries — the
// capability stateless per-packet scanning (AhoCorasickMatch) lacks, and
// the reason IDS/traffic-classification need the stateful re-organization
// the paper describes.
type StreamAhoCorasick struct {
	name        string
	m           *ac.Matcher
	sig         string
	DropOnMatch bool
	// flows holds the per-flow scan position and taint flag, bounded
	// like every other stateful store.
	flows *flowtable.Table[streamFlow]

	Alerts     uint64
	DeepStates uint64

	// stage holds packets of pairwise different flows waiting for one pass
	// of the batch kernel; states are their flows' resume positions and
	// newFlows counts those whose flow has no table entry yet.
	stage    scanStage
	states   []ac.State
	newFlows int
}

// streamFlow is a flow's resumable scan state plus its taint flag (once a
// flow matched, all its subsequent segments drop too — inline IDS
// semantics).
type streamFlow struct {
	state   ac.State
	tainted bool
}

// NewStreamAhoCorasick builds the stream matcher.
func NewStreamAhoCorasick(name, sig string, m *ac.Matcher, dropOnMatch bool) *StreamAhoCorasick {
	return &StreamAhoCorasick{
		name: name, m: m, sig: sig, DropOnMatch: dropOnMatch,
		flows: flowtable.New[streamFlow](reassemblyFlowCapacity),
	}
}

// Name implements element.Element.
func (e *StreamAhoCorasick) Name() string { return e.name }

// Traits implements element.Element.
func (e *StreamAhoCorasick) Traits() element.Traits {
	return element.Traits{
		Kind: "AhoCorasick", Class: element.ClassClassifier,
		ReadsHeader: true, ReadsPayload: true, CanDrop: e.DropOnMatch,
		Offloadable: true, Stateful: true,
	}
}

// NumOutputs implements element.Element.
func (e *StreamAhoCorasick) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *StreamAhoCorasick) Signature() string { return "StreamAC/" + e.sig }

// MemAccesses implements hetsim.MemProber.
func (e *StreamAhoCorasick) MemAccesses() uint64 { return e.DeepStates }

// FootprintBytes implements hetsim.Footprinter.
func (e *StreamAhoCorasick) FootprintBytes() float64 {
	return float64(e.m.NumStates()) * (256*4 + 16)
}

// Process implements element.Element. Input must be in per-flow stream
// order (run it behind TCPReassembly). Packets are staged while their flows
// differ and scanned together; a second packet of a staged flow needs the
// first one's end state, so it settles the stage first. The flow table sees
// the operations a packet-at-a-time walk would issue, in the same order.
func (e *StreamAhoCorasick) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		if e.staged(p.FlowID) {
			e.flush()
		}
		fs, known := e.flows.Peek(p.FlowID)
		pl := p.Payload()
		tainted := e.DropOnMatch && fs.tainted
		// Inserting a new flow into a full table evicts another flow's
		// state; that packet is scanned alone, so no staged state is read
		// before an eviction that should have cleared it.
		evicts := !known && e.flows.Len()+e.newFlows >= e.flows.Capacity()
		if tainted || pl == nil || evicts {
			e.flush()
		}
		if tainted || pl == nil {
			e.flows.Get(p.FlowID) // the lookup refreshes the flow's recency
			if tainted {
				p.Drop(e.name + "/tainted-flow")
			}
			continue
		}
		e.stage.add(p, pl)
		e.states = append(e.states, fs.state)
		if !known {
			e.newFlows++
		}
		if evicts || len(e.states) == ac.Lanes {
			e.flush()
		}
	}
	e.flush()
	return []*netpkt.Batch{b}
}

// staged reports whether a packet of the flow is waiting in the stage.
func (e *StreamAhoCorasick) staged(flow uint64) bool {
	for _, p := range e.stage.pkts {
		if p.FlowID == flow {
			return true
		}
	}
	return false
}

// flush scans the staged packets and applies the verdicts in arrival order.
func (e *StreamAhoCorasick) flush() {
	st := &e.stage
	e.DeepStates += uint64(e.m.ScanFromBatch(e.states, st.payloads, st.matches))
	for i, p := range st.pkts {
		fs, _ := e.flows.Get(p.FlowID)
		fs.state = e.states[i]
		if st.matches[i] > 0 {
			e.Alerts++
			if e.DropOnMatch {
				fs.tainted = true
				p.Drop(e.name)
			}
		}
		e.flows.Put(p.FlowID, fs)
	}
	st.reset()
	e.states, e.newFlows = e.states[:0], 0
}

// Reset implements element.Resetter.
func (e *StreamAhoCorasick) Reset() {
	e.flows.Reset()
	e.Alerts, e.DeepStates = 0, 0
}

// NewStreamIDS builds a stateful IDS: TCP reassembly followed by
// stream-aware pattern matching. Unlike NewIDS, it detects signatures
// split across segment boundaries, at the buffering cost the paper's
// stateful-processing discussion describes.
func NewStreamIDS(name string, patterns []string, dropOnMatch bool) *NF {
	m, err := ac.NewMatcherStrings(patterns)
	if err != nil {
		panic(fmt.Sprintf("nf: bad IDS patterns: %v", err))
	}
	profile := TableII[KindIDS]
	profile.Drop = dropOnMatch
	sig := fmt.Sprintf("%x/s%d", fingerprintStrings(patterns), len(patterns))
	return &NF{
		Name: name, Kind: KindIDS, Profile: profile,
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			chk := g.Add(element.NewCheckIPHeader(prefix + "/chk"))
			asm := g.Add(NewTCPReassembly(prefix + "/asm"))
			scan := g.Add(NewStreamAhoCorasick(prefix+"/sac", sig, m, dropOnMatch))
			return chainNodes(g, chk, asm, scan)
		},
	}
}
