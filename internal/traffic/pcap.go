package traffic

// Minimal pcap (libpcap classic format) reader/writer so generated traces
// interoperate with standard tooling (tcpdump -r, Wireshark) and captured
// traces can drive the framework.
//
// Format limits (see also the package doc): classic pcap only — pcapng is
// not recognized; the Ethernet link type only; both byte orders; both the
// microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) timestamp magics on
// the read side. Records longer than the capture's snapshot length were
// truncated by whatever captured them (incl < origlen); this reader keeps
// the truncated bytes and the packet parser copes, but checksums and
// payload matching see only what is on disk. The writer always emits
// little-endian microsecond captures with a 65535-byte snaplen.

import (
	"encoding/binary"
	"fmt"
	"io"

	"nfcompass/internal/netpkt"
)

const (
	pcapMagicLE     = 0xa1b2c3d4 // microsecond timestamps, little-endian
	pcapMagicBE     = 0xd4c3b2a1 // microsecond timestamps, big-endian
	pcapMagicNanoLE = 0xa1b23c4d // nanosecond timestamps, little-endian
	pcapMagicNanoBE = 0x4d3cb2a1 // nanosecond timestamps, big-endian
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	pcapLinkEther   = 1
	pcapSnapLen     = 65535
	// pcapMaxRecord caps how large a record this reader will buffer, even
	// when a (possibly corrupt) header advertises a bigger snaplen: modern
	// tcpdump caps snaplen at 256 KiB, and anything beyond that is far more
	// likely a malformed stream than a jumbo frame.
	pcapMaxRecord = 1 << 18
)

// WritePcap writes packets as a classic little-endian microsecond pcap
// stream. Packet timestamps come from the Arrival field (simulated
// nanoseconds, truncated to microseconds on disk).
func WritePcap(w io.Writer, pkts []*netpkt.Packet) error {
	pw, err := NewPcapWriter(w)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		if err := pw.WritePacket(p); err != nil {
			return fmt.Errorf("traffic: pcap record %d: %w", i, err)
		}
	}
	return nil
}

// PcapWriter writes a classic little-endian microsecond pcap stream one
// packet at a time — the streaming counterpart of WritePcap, for sinks
// that tee live traffic to disk without materializing it.
type PcapWriter struct {
	w   io.Writer
	rec [16]byte
}

// NewPcapWriter emits the file header and returns the streaming writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicLE)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMin)
	// thiszone, sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkEther)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &PcapWriter{w: w}, nil
}

// WritePacket appends one record. Frames longer than the snaplen are
// truncated on disk (origlen records the full wire length).
func (pw *PcapWriter) WritePacket(p *netpkt.Packet) error {
	ns := p.Arrival
	if ns < 0 {
		ns = 0
	}
	binary.LittleEndian.PutUint32(pw.rec[0:4], uint32(ns/1e9))
	binary.LittleEndian.PutUint32(pw.rec[4:8], uint32(ns%1e9/1e3))
	n := len(p.Data)
	if n > pcapSnapLen {
		n = pcapSnapLen
	}
	binary.LittleEndian.PutUint32(pw.rec[8:12], uint32(n))
	binary.LittleEndian.PutUint32(pw.rec[12:16], uint32(len(p.Data)))
	if _, err := pw.w.Write(pw.rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(p.Data[:n])
	return err
}

// PcapReader streams a classic pcap capture record by record, so arbitrarily
// large traces replay in constant memory. It accepts either byte order and
// both the microsecond and nanosecond timestamp magics.
type PcapReader struct {
	r       io.Reader
	order   binary.ByteOrder
	nano    bool
	snapCap uint32
	rec     [16]byte
	n       int // records returned, for error context
	alloc   func(n int) *netpkt.Packet
}

// SetAlloc installs a packet allocator for subsequent Next calls — the hook
// the ingress replay path uses to draw record buffers from a netpkt.Arena
// instead of the garbage collector. The allocator must return a packet
// whose Data is exactly n bytes (netpkt.Arena.GetPacket qualifies). A nil
// allocator restores plain allocation.
func (pr *PcapReader) SetAlloc(alloc func(n int) *netpkt.Packet) { pr.alloc = alloc }

// NewPcapReader validates the 24-byte file header and returns the streaming
// reader.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("traffic: pcap header: %w", err)
	}
	pr := &PcapReader{r: r}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case pcapMagicLE:
		pr.order = binary.LittleEndian
	case pcapMagicBE:
		pr.order = binary.BigEndian
	case pcapMagicNanoLE:
		pr.order, pr.nano = binary.LittleEndian, true
	case pcapMagicNanoBE:
		pr.order, pr.nano = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("traffic: not a pcap stream (magic %#x)",
			binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if lt := pr.order.Uint32(hdr[20:24]); lt != pcapLinkEther {
		return nil, fmt.Errorf("traffic: unsupported link type %d", lt)
	}
	// Honour the capture's declared snaplen up to the hard cap, and never
	// go below the classic default — some writers record 0 there.
	pr.snapCap = pr.order.Uint32(hdr[16:20])
	if pr.snapCap < pcapSnapLen {
		pr.snapCap = pcapSnapLen
	}
	if pr.snapCap > pcapMaxRecord {
		pr.snapCap = pcapMaxRecord
	}
	return pr, nil
}

// Next returns the next packet, or io.EOF cleanly at end of stream. The
// packet's Arrival is the record timestamp in nanoseconds; it is Parsed so
// offsets are set (best effort — non-IP payloads keep offsets unset). A
// capture cut off mid-record returns io.ErrUnexpectedEOF.
func (pr *PcapReader) Next() (*netpkt.Packet, error) {
	if _, err := io.ReadFull(pr.r, pr.rec[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("traffic: pcap record %d header: %w", pr.n, err)
	}
	sec := pr.order.Uint32(pr.rec[0:4])
	sub := pr.order.Uint32(pr.rec[4:8])
	incl := pr.order.Uint32(pr.rec[8:12])
	if incl > pr.snapCap {
		return nil, fmt.Errorf("traffic: oversized pcap record %d (%d bytes)", pr.n, incl)
	}
	var p *netpkt.Packet
	if pr.alloc != nil {
		p = pr.alloc(int(incl))
	} else {
		p = netpkt.NewPacket(make([]byte, incl))
	}
	if _, err := io.ReadFull(pr.r, p.Data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("traffic: pcap record %d body: %w", pr.n, err)
	}
	if pr.nano {
		p.Arrival = int64(sec)*1e9 + int64(sub)
	} else {
		p.Arrival = int64(sec)*1e9 + int64(sub)*1e3
	}
	_ = p.Parse() // best effort; offsets stay unset for non-IP
	pr.n++
	return p, nil
}

// ReadPcap parses a whole classic pcap stream (either byte order,
// microsecond or nanosecond timestamps) into packets. Large captures are
// better consumed incrementally through PcapReader.
func ReadPcap(r io.Reader) ([]*netpkt.Packet, error) {
	pr, err := NewPcapReader(r)
	if err != nil {
		return nil, err
	}
	var pkts []*netpkt.Packet
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}

// BatchesFromPcap slices a parsed capture into batches of batchSize for
// replay through the framework. Flow IDs are synthesized by hashing the
// 5-tuple so stateful elements see consistent flows.
func BatchesFromPcap(r io.Reader, batchSize int) ([]*netpkt.Batch, error) {
	pkts, err := ReadPcap(r)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	for _, p := range pkts {
		p.FlowID = FlowHash(p)
	}
	var out []*netpkt.Batch
	for i := 0; i < len(pkts); i += batchSize {
		j := i + batchSize
		if j > len(pkts) {
			j = len(pkts)
		}
		out = append(out, netpkt.NewBatch(uint64(len(out)), pkts[i:j]))
	}
	return out, nil
}

// FlowHash derives a flow id from the packet's addresses and ports (FNV-1a
// over the 5-tuple bytes), so replayed captures exercise per-flow state the
// same way generated traffic does. The ingress replay sources stamp it
// into FlowID for every packet they emit.
func FlowHash(p *netpkt.Packet) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	if p.L3Offset >= 0 && p.L3Proto == netpkt.ProtoIPv4 && len(p.L3()) >= 20 {
		mix(p.L3()[12:20]) // src+dst addresses
		mix([]byte{byte(p.L4Proto)})
	}
	if l4 := p.L4(); len(l4) >= 4 {
		mix(l4[0:4]) // ports
	}
	return h
}
