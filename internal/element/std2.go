package element

import (
	"encoding/binary"
	"fmt"

	"nfcompass/internal/netpkt"
)

// Queue buffers up to Capacity packets, releasing them in FIFO order on
// subsequent batches, like Click's Queue between a push and pull path. In
// the push-mode executor it acts as a shaper that bounds in-flight packets:
// overflowing packets are tail-dropped. It is the memory-budget knob the
// paper's stateful-processing discussion refers to.
type Queue struct {
	name     string
	Capacity int
	buf      []*netpkt.Packet
	// Drops counts tail drops; HighWater tracks the deepest occupancy.
	Drops     uint64
	HighWater int
}

// NewQueue builds a queue with the given capacity (default 512).
func NewQueue(name string, capacity int) *Queue {
	if capacity <= 0 {
		capacity = 512
	}
	return &Queue{name: name, Capacity: capacity}
}

// Name implements Element.
func (e *Queue) Name() string { return e.name }

// Traits implements Element.
func (e *Queue) Traits() Traits {
	return Traits{Kind: "Queue", Class: ClassShaper, CanDrop: true, Stateful: true}
}

// NumOutputs implements Element.
func (e *Queue) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *Queue) Signature() string { return fmt.Sprintf("Queue/%d", e.Capacity) }

// Process implements Element: enqueue the batch's live packets, then emit
// everything queued (the downstream stage drains at batch granularity).
func (e *Queue) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		if len(e.buf) >= e.Capacity {
			p.Drop(e.name)
			e.Drops++
			continue
		}
		e.buf = append(e.buf, p)
	}
	if len(e.buf) > e.HighWater {
		e.HighWater = len(e.buf)
	}
	out := b.Derive(e.buf)
	e.buf = nil
	return []*netpkt.Batch{out}
}

// Reset implements Resetter.
func (e *Queue) Reset() { e.buf, e.Drops, e.HighWater = nil, 0, 0 }

// Len reports the current queue depth.
func (e *Queue) Len() int { return len(e.buf) }

// CheckPaint steers packets by their paint annotation, like Click's
// CheckPaint: packets painted with the configured color leave on port 1,
// everything else on port 0.
type CheckPaint struct {
	name  string
	color byte
}

// NewCheckPaint builds the paint classifier.
func NewCheckPaint(name string, color byte) *CheckPaint {
	return &CheckPaint{name: name, color: color}
}

// Name implements Element.
func (e *CheckPaint) Name() string { return e.name }

// Traits implements Element.
func (e *CheckPaint) Traits() Traits {
	return Traits{Kind: "CheckPaint", Class: ClassClassifier, Offloadable: true}
}

// NumOutputs implements Element.
func (e *CheckPaint) NumOutputs() int { return 2 }

// Signature implements Element.
func (e *CheckPaint) Signature() string { return fmt.Sprintf("CheckPaint/%d", e.color) }

// Process implements Element.
func (e *CheckPaint) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := []*netpkt.Batch{b.Derive(nil), b.Derive(nil)}
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		port := 0
		if p.Paint == e.color {
			port = 1
		}
		out[port].Packets = append(out[port].Packets, p)
	}
	return out
}

// SetDSCP rewrites the IPv4 DSCP field (the upper six TOS bits), fixing
// the header checksum incrementally — a pure header overwrite, so the
// synthesizer may eliminate earlier dead instances.
type SetDSCP struct {
	name string
	dscp uint8
}

// NewSetDSCP builds the DSCP marker (dscp is the 6-bit code point).
func NewSetDSCP(name string, dscp uint8) *SetDSCP {
	return &SetDSCP{name: name, dscp: dscp & 0x3f}
}

// Name implements Element.
func (e *SetDSCP) Name() string { return e.name }

// Traits implements Element.
func (e *SetDSCP) Traits() Traits {
	return Traits{
		Kind: "SetDSCP", Class: ClassModifier,
		WritesHeader: true, Offloadable: true,
		PreservesHeaderValidity: true, PureOverwrite: true,
	}
}

// NumOutputs implements Element.
func (e *SetDSCP) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *SetDSCP) Signature() string { return fmt.Sprintf("SetDSCP/%d", e.dscp) }

// Process implements Element.
func (e *SetDSCP) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L3Offset < 0 {
			continue
		}
		h := p.Data[p.L3Offset:]
		oldWord := binary.BigEndian.Uint16(h[0:2])
		h[1] = h[1]&0x03 | e.dscp<<2
		newWord := binary.BigEndian.Uint16(h[0:2])
		if oldWord != newWord {
			oldSum := binary.BigEndian.Uint16(h[10:12])
			binary.BigEndian.PutUint16(h[10:12],
				netpkt.ChecksumUpdate16(oldSum, oldWord, newWord))
		}
	}
	return single(b)
}
