package nf

import (
	"encoding/binary"
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/netpkt"
)

// IPFragmenter splits IPv4 packets larger than the configured MTU into
// RFC 791 fragments (like Click's IPFragmenter). Payload-inspecting NFs
// downstream need the matching defragmenter in front of them — exactly the
// stateful re-organization pressure §III-B-1-b describes.
type IPFragmenter struct {
	name string
	mtu  int

	Fragmented uint64 // packets that required splitting
	FragsOut   uint64 // fragments emitted
}

// NewIPFragmenter builds the fragmenter; mtu is the L3 MTU in bytes
// (header + payload; minimum 68 per RFC 791).
func NewIPFragmenter(name string, mtu int) *IPFragmenter {
	if mtu < 68 {
		mtu = 68
	}
	return &IPFragmenter{name: name, mtu: mtu}
}

// Name implements element.Element.
func (e *IPFragmenter) Name() string { return e.name }

// Traits implements element.Element.
func (e *IPFragmenter) Traits() element.Traits {
	return element.Traits{
		Kind: "IPFragmenter", Class: element.ClassModifier,
		ReadsHeader: true, WritesHeader: true, WritesPayload: true,
		AddsRemovesBytes: true, PreservesHeaderValidity: true,
	}
}

// NumOutputs implements element.Element.
func (e *IPFragmenter) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *IPFragmenter) Signature() string { return fmt.Sprintf("IPFragmenter/%d", e.mtu) }

// Process implements element.Element: oversized packets are replaced by
// their fragments (the output batch may be longer than the input).
func (e *IPFragmenter) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := b.Derive(nil)
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L3Offset < 0 {
			out.Packets = append(out.Packets, p)
			continue
		}
		ipLen := len(p.Data) - p.L3Offset
		if ipLen <= e.mtu {
			out.Packets = append(out.Packets, p)
			continue
		}
		hdr, err := netpkt.ParseIPv4(p.L3())
		if err != nil || hdr.Flags&0x2 != 0 { // DF set: cannot fragment
			if err == nil {
				p.Drop(e.name + "/df")
			} else {
				p.Drop(e.name)
			}
			out.Packets = append(out.Packets, p)
			continue
		}
		frags := fragmentIPv4(p, hdr, e.mtu)
		e.Fragmented++
		e.FragsOut += uint64(len(frags))
		out.Packets = append(out.Packets, frags...)
	}
	// Re-stamp sequence for downstream order bookkeeping.
	for i, p := range out.Packets {
		p.SeqInBatch = i
	}
	return []*netpkt.Batch{out}
}

// fragmentIPv4 cuts the packet's IP payload into MTU-sized fragments with
// correct offsets, MF flags, and checksums.
func fragmentIPv4(p *netpkt.Packet, hdr netpkt.IPv4Header, mtu int) []*netpkt.Packet {
	ihl := hdr.IHL
	payload := p.Data[p.L3Offset+ihl:]
	// Fragment payload size must be a multiple of 8.
	chunk := (mtu - ihl) &^ 7
	var frags []*netpkt.Packet
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		last := false
		if end >= len(payload) {
			end = len(payload)
			last = true
		}
		data := make([]byte, p.L3Offset+ihl+(end-off))
		copy(data, p.Data[:p.L3Offset+ihl])
		copy(data[p.L3Offset+ihl:], payload[off:end])

		h := data[p.L3Offset:]
		binary.BigEndian.PutUint16(h[2:4], uint16(ihl+end-off))
		fragWord := uint16(off / 8)
		if !last {
			fragWord |= 1 << 13 // MF
		}
		fragWord |= uint16(hdr.Flags&0x4) << 13 // preserve reserved bit placement
		binary.BigEndian.PutUint16(h[6:8], fragWord)
		h[10], h[11] = 0, 0
		sum := netpkt.Checksum(h[:ihl])
		binary.BigEndian.PutUint16(h[10:12], sum)

		q := netpkt.NewPacket(data)
		q.FlowID = p.FlowID
		q.Arrival = p.Arrival
		_ = q.Parse()
		frags = append(frags, q)
	}
	return frags
}

// IPDefragmenter reassembles IPv4 fragments (keyed by src/dst/ID/proto)
// back into whole packets, with bounded per-key buffering.
type IPDefragmenter struct {
	name string
	keys *flowtable.Table[*fragBuf]

	Reassembled uint64
	Incomplete  uint64 // fragments evicted before completion
}

type fragBuf struct {
	parts    map[int][]byte // frag offset (bytes) -> payload
	header   []byte         // ethernet + IP header template
	l3Offset int
	totalLen int // payload length once the last fragment arrives
	haveLast bool
	flowID   uint64
	arrival  int64
	gotBytes int
}

// NewIPDefragmenter builds the reassembler (bounded to 4096 concurrent
// datagrams).
func NewIPDefragmenter(name string) *IPDefragmenter {
	e := &IPDefragmenter{name: name}
	e.keys = flowtable.New[*fragBuf](4096)
	e.keys.OnEvict = func(uint64, *fragBuf) { e.Incomplete++ }
	return e
}

// Name implements element.Element.
func (e *IPDefragmenter) Name() string { return e.name }

// Traits implements element.Element.
func (e *IPDefragmenter) Traits() element.Traits {
	return element.Traits{
		Kind: "IPDefragmenter", Class: element.ClassShaper,
		ReadsHeader: true, WritesHeader: true, WritesPayload: true,
		AddsRemovesBytes: true, Stateful: true, CanDrop: true,
		PreservesHeaderValidity: true,
	}
}

// NumOutputs implements element.Element.
func (e *IPDefragmenter) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *IPDefragmenter) Signature() string { return "IPDefragmenter" }

// Process implements element.Element: unfragmented packets pass through;
// fragments are absorbed until their datagram completes, which then emits
// the reassembled packet.
func (e *IPDefragmenter) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := b.Derive(nil)
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L3Offset < 0 {
			out.Packets = append(out.Packets, p)
			continue
		}
		hdr, err := netpkt.ParseIPv4(p.L3())
		if err != nil {
			p.Drop(e.name)
			out.Packets = append(out.Packets, p)
			continue
		}
		// netpkt.IPv4Header.Flags holds the wire's top three bits as
		// [reserved, DF, MF] from high to low, so bit 0 is MF.
		mf := hdr.Flags&0x1 != 0
		if hdr.FragOff == 0 && !mf {
			out.Packets = append(out.Packets, p) // not a fragment
			continue
		}

		key := fragKey(hdr)
		buf, created := e.keys.GetOrCreate(key, func() *fragBuf {
			return &fragBuf{
				parts:    make(map[int][]byte),
				header:   append([]byte(nil), p.Data[:p.L3Offset+hdr.IHL]...),
				l3Offset: p.L3Offset,
				flowID:   p.FlowID,
				arrival:  p.Arrival,
			}
		})
		_ = created
		payload := p.Data[p.L3Offset+hdr.IHL:]
		off := int(hdr.FragOff) * 8
		if _, dup := buf.parts[off]; !dup {
			buf.parts[off] = append([]byte(nil), payload...)
			buf.gotBytes += len(payload)
		}
		if !mf {
			buf.haveLast = true
			buf.totalLen = off + len(payload)
		}

		if buf.haveLast && buf.gotBytes >= buf.totalLen {
			if whole, ok := buf.assemble(); ok {
				out.Packets = append(out.Packets, whole)
				e.Reassembled++
				e.keys.Delete(key)
			}
		}
	}
	for i, p := range out.Packets {
		p.SeqInBatch = i
	}
	return []*netpkt.Batch{out}
}

// assemble stitches the fragments if they cover [0, totalLen) contiguously.
func (f *fragBuf) assemble() (*netpkt.Packet, bool) {
	payload := make([]byte, f.totalLen)
	covered := 0
	for covered < f.totalLen {
		part, ok := f.parts[covered]
		if !ok {
			return nil, false // hole
		}
		copy(payload[covered:], part)
		covered += len(part)
	}
	ihl := len(f.header) - f.l3Offset
	data := make([]byte, len(f.header)+f.totalLen)
	copy(data, f.header)
	copy(data[len(f.header):], payload)
	h := data[f.l3Offset:]
	binary.BigEndian.PutUint16(h[2:4], uint16(ihl+f.totalLen))
	binary.BigEndian.PutUint16(h[6:8], 0) // clear frag word
	h[10], h[11] = 0, 0
	sum := netpkt.Checksum(h[:ihl])
	binary.BigEndian.PutUint16(h[10:12], sum)

	p := netpkt.NewPacket(data)
	p.FlowID = f.flowID
	p.Arrival = f.arrival
	_ = p.Parse()
	return p, true
}

// fragKey identifies a datagram being reassembled.
func fragKey(h netpkt.IPv4Header) uint64 {
	return uint64(h.Src)<<32 ^ uint64(h.Dst)<<8 ^ uint64(h.ID)<<16 ^ uint64(h.Protocol)
}

// Reset implements element.Resetter.
func (e *IPDefragmenter) Reset() {
	e.keys.Reset()
	e.Reassembled, e.Incomplete = 0, 0
}

// Reset implements element.Resetter.
func (e *IPFragmenter) Reset() { e.Fragmented, e.FragsOut = 0, 0 }
