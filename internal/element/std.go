package element

import (
	"fmt"

	"nfcompass/internal/netpkt"
	"nfcompass/internal/trie"
)

// FromDevice is the traffic entry point; it passes batches through and
// counts them.
type FromDevice struct {
	name    string
	Packets uint64
	Bytes   uint64
}

// NewFromDevice returns a named source endpoint.
func NewFromDevice(name string) *FromDevice { return &FromDevice{name: name} }

// Name implements Element.
func (e *FromDevice) Name() string { return e.name }

// Traits implements Element.
func (e *FromDevice) Traits() Traits { return Traits{Kind: "FromDevice", Class: ClassIO} }

// NumOutputs implements Element.
func (e *FromDevice) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *FromDevice) Signature() string { return "FromDevice/" + e.name }

// Process implements Element.
func (e *FromDevice) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *FromDevice) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	e.Packets += uint64(b.Live())
	e.Bytes += uint64(b.Bytes())
	return b
}

// Reset implements Resetter.
func (e *FromDevice) Reset() { e.Packets, e.Bytes = 0, 0 }

// ToDevice is the traffic exit point; it counts departing packets.
type ToDevice struct {
	name    string
	Packets uint64
	Bytes   uint64
}

// NewToDevice returns a named sink endpoint.
func NewToDevice(name string) *ToDevice { return &ToDevice{name: name} }

// Name implements Element.
func (e *ToDevice) Name() string { return e.name }

// Traits implements Element.
func (e *ToDevice) Traits() Traits { return Traits{Kind: "ToDevice", Class: ClassIO} }

// NumOutputs implements Element.
func (e *ToDevice) NumOutputs() int { return 0 }

// Signature implements Element.
func (e *ToDevice) Signature() string { return "ToDevice/" + e.name }

// Process implements Element.
func (e *ToDevice) Process(b *netpkt.Batch) []*netpkt.Batch {
	e.Packets += uint64(b.Live())
	e.Bytes += uint64(b.Bytes())
	return nil
}

// Reset implements Resetter.
func (e *ToDevice) Reset() { e.Packets, e.Bytes = 0, 0 }

// CheckIPHeader validates IPv4 headers (length, version, checksum) and
// drops invalid packets, like Click's CheckIPHeader.
type CheckIPHeader struct {
	name    string
	Dropped uint64
}

// NewCheckIPHeader returns the validator element.
func NewCheckIPHeader(name string) *CheckIPHeader { return &CheckIPHeader{name: name} }

// Name implements Element.
func (e *CheckIPHeader) Name() string { return e.name }

// Traits implements Element.
func (e *CheckIPHeader) Traits() Traits {
	return Traits{
		Kind: "CheckIPHeader", Class: ClassClassifier,
		ReadsHeader: true, CanDrop: true, Offloadable: true,
	}
}

// NumOutputs implements Element.
func (e *CheckIPHeader) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *CheckIPHeader) Signature() string { return "CheckIPHeader" }

// Process implements Element.
func (e *CheckIPHeader) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *CheckIPHeader) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		if p.L3Proto != netpkt.ProtoIPv4 || p.L3Offset < 0 ||
			!netpkt.IPv4HeaderChecksumOK(p.L3()) {
			p.Drop(e.name)
			e.Dropped++
		}
	}
	return b
}

// Reset implements Resetter.
func (e *CheckIPHeader) Reset() { e.Dropped = 0 }

// Classifier steers packets to output ports by a user predicate, like
// Click's Classifier/IPClassifier. The rules function maps a packet to an
// output port; packets mapping outside [0,outputs) are dropped.
type Classifier struct {
	name    string
	sig     string
	outputs int
	rules   func(*netpkt.Packet) int
	Dropped uint64
}

// NewClassifier builds a classifier with the given port count and rule
// function. sig must fingerprint the rule configuration for de-duplication.
func NewClassifier(name, sig string, outputs int, rules func(*netpkt.Packet) int) *Classifier {
	return &Classifier{name: name, sig: sig, outputs: outputs, rules: rules}
}

// Name implements Element.
func (e *Classifier) Name() string { return e.name }

// Traits implements Element.
func (e *Classifier) Traits() Traits {
	return Traits{
		Kind: "Classifier", Class: ClassClassifier,
		ReadsHeader: true, CanDrop: true, Offloadable: true,
	}
}

// NumOutputs implements Element.
func (e *Classifier) NumOutputs() int { return e.outputs }

// Signature implements Element.
func (e *Classifier) Signature() string { return "Classifier/" + e.sig }

// Process implements Element. The batch is split per output port — the
// batch-split overhead characterized in the paper's Fig. 5.
func (e *Classifier) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := make([]*netpkt.Batch, e.outputs)
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		port := e.rules(p)
		if port < 0 || port >= e.outputs {
			p.Drop(e.name)
			e.Dropped++
			continue
		}
		if out[port] == nil {
			out[port] = b.Derive(nil)
		}
		out[port].Packets = append(out[port].Packets, p)
	}
	return out
}

// Reset implements Resetter.
func (e *Classifier) Reset() { e.Dropped = 0 }

// IPLookup performs IPv4 longest-prefix-match and writes the next hop into
// the packet's user annotation, like Click's RadixIPLookup with a single
// downstream path. Packets with no route are dropped.
type IPLookup struct {
	name    string
	table   *trie.Dir24_8
	sig     string
	NoRoute uint64
	// Accesses counts exact table memory accesses (1–2 per lookup); the
	// platform simulator consumes it via its MemProber interface.
	Accesses uint64
}

// MemAccesses reports cumulative exact table accesses.
func (e *IPLookup) MemAccesses() uint64 { return e.Accesses }

// NewIPLookup builds the LPM element over a compiled DIR-24-8 table. sig
// should fingerprint the routing table.
func NewIPLookup(name, sig string, table *trie.Dir24_8) *IPLookup {
	return &IPLookup{name: name, table: table, sig: sig}
}

// Name implements Element.
func (e *IPLookup) Name() string { return e.name }

// Traits implements Element.
func (e *IPLookup) Traits() Traits {
	return Traits{
		Kind: "IPLookup", Class: ClassClassifier,
		ReadsHeader: true, CanDrop: true, Offloadable: true,
	}
}

// NumOutputs implements Element.
func (e *IPLookup) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *IPLookup) Signature() string { return "IPLookup/" + e.sig }

// Process implements Element.
func (e *IPLookup) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *IPLookup) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L3Offset < 0 {
			continue
		}
		dst := netpkt.IPv4FromBytes(p.Data[p.L3Offset+16 : p.L3Offset+20])
		e.Accesses += uint64(e.table.MemoryAccesses(dst))
		hop := e.table.Lookup(dst)
		if hop == 0 {
			p.Drop(e.name)
			e.NoRoute++
			continue
		}
		p.UserAnno[0] = byte(hop)
		p.UserAnno[1] = byte(hop >> 8)
	}
	return b
}

// Reset implements Resetter.
func (e *IPLookup) Reset() { e.NoRoute, e.Accesses = 0, 0 }

// DecTTL decrements the IPv4 TTL, fixing the checksum incrementally, and
// drops expired packets, like Click's DecIPTTL.
type DecTTL struct {
	name    string
	Expired uint64
}

// NewDecTTL returns the TTL decrement element.
func NewDecTTL(name string) *DecTTL { return &DecTTL{name: name} }

// Name implements Element.
func (e *DecTTL) Name() string { return e.name }

// Traits implements Element.
func (e *DecTTL) Traits() Traits {
	return Traits{
		Kind: "DecTTL", Class: ClassModifier,
		ReadsHeader: true, WritesHeader: true, CanDrop: true, Offloadable: true,
		PreservesHeaderValidity: true,
	}
}

// NumOutputs implements Element.
func (e *DecTTL) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *DecTTL) Signature() string { return "DecTTL" }

// Process implements Element.
func (e *DecTTL) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *DecTTL) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L3Offset < 0 {
			continue
		}
		h := p.Data[p.L3Offset:]
		if h[8] <= 1 {
			p.Drop(e.name)
			e.Expired++
			continue
		}
		oldWord := uint16(h[8])<<8 | uint16(h[9])
		h[8]--
		newWord := uint16(h[8])<<8 | uint16(h[9])
		oldSum := uint16(h[10])<<8 | uint16(h[11])
		newSum := netpkt.ChecksumUpdate16(oldSum, oldWord, newWord)
		h[10], h[11] = byte(newSum>>8), byte(newSum)
	}
	return b
}

// Reset implements Resetter.
func (e *DecTTL) Reset() { e.Expired = 0 }

// Paint sets the paint annotation, like Click's Paint.
type Paint struct {
	name  string
	color byte
}

// NewPaint returns a paint element with the given color.
func NewPaint(name string, color byte) *Paint { return &Paint{name: name, color: color} }

// Name implements Element.
func (e *Paint) Name() string { return e.name }

// Traits implements Element.
func (e *Paint) Traits() Traits {
	// Paint writes only annotation metadata, not packet bytes.
	return Traits{Kind: "Paint", Class: ClassModifier, Offloadable: true}
}

// NumOutputs implements Element.
func (e *Paint) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *Paint) Signature() string { return fmt.Sprintf("Paint/%d", e.color) }

// Process implements Element.
func (e *Paint) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *Paint) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	for _, p := range b.Packets {
		if !p.Dropped {
			p.Paint = e.color
		}
	}
	return b
}

// Tee duplicates the batch to n outputs, like Click's Tee. It is the
// branch-out primitive SFC parallelization inserts.
type Tee struct {
	name string
	n    int
}

// NewTee returns a duplicator with n outputs.
func NewTee(name string, n int) *Tee { return &Tee{name: name, n: n} }

// Name implements Element.
func (e *Tee) Name() string { return e.name }

// Traits implements Element.
func (e *Tee) Traits() Traits { return Traits{Kind: "Tee", Class: ClassShaper} }

// NumOutputs implements Element.
func (e *Tee) NumOutputs() int { return e.n }

// Signature implements Element.
func (e *Tee) Signature() string { return fmt.Sprintf("Tee/%d", e.n) }

// Process implements Element. Output 0 receives the original batch;
// outputs 1..n-1 receive deep copies.
func (e *Tee) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := make([]*netpkt.Batch, e.n)
	out[0] = b
	for i := 1; i < e.n; i++ {
		out[i] = b.Clone()
	}
	return out
}

// Counter counts packets and bytes passing through.
type Counter struct {
	name    string
	Packets uint64
	Bytes   uint64
}

// NewCounter returns a pass-through counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name implements Element.
func (e *Counter) Name() string { return e.name }

// Traits implements Element.
func (e *Counter) Traits() Traits {
	return Traits{Kind: "Counter", Class: ClassClassifier, Offloadable: true}
}

// NumOutputs implements Element.
func (e *Counter) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *Counter) Signature() string { return "Counter/" + e.name }

// Process implements Element.
func (e *Counter) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *Counter) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	e.Packets += uint64(b.Live())
	e.Bytes += uint64(b.Bytes())
	return b
}

// Reset implements Resetter.
func (e *Counter) Reset() { e.Packets, e.Bytes = 0, 0 }

// Discard drops every packet it receives.
type Discard struct {
	name    string
	Dropped uint64
}

// NewDiscard returns the packet sink.
func NewDiscard(name string) *Discard { return &Discard{name: name} }

// Name implements Element.
func (e *Discard) Name() string { return e.name }

// Traits implements Element.
func (e *Discard) Traits() Traits {
	return Traits{Kind: "Discard", Class: ClassTerminal, CanDrop: true}
}

// NumOutputs implements Element.
func (e *Discard) NumOutputs() int { return 0 }

// Signature implements Element.
func (e *Discard) Signature() string { return "Discard" }

// Process implements Element.
func (e *Discard) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if !p.Dropped {
			p.Drop(e.name)
			e.Dropped++
		}
	}
	return nil
}

// Reset implements Resetter.
func (e *Discard) Reset() { e.Dropped = 0 }

// EtherEncap rewrites the Ethernet source and destination addresses
// (packets are already Ethernet framed; this models next-hop rewrite).
type EtherEncap struct {
	name     string
	src, dst netpkt.MAC
}

// NewEtherEncap returns the L2 rewrite element.
func NewEtherEncap(name string, src, dst netpkt.MAC) *EtherEncap {
	return &EtherEncap{name: name, src: src, dst: dst}
}

// Name implements Element.
func (e *EtherEncap) Name() string { return e.name }

// Traits implements Element.
func (e *EtherEncap) Traits() Traits {
	return Traits{Kind: "EtherEncap", Class: ClassModifier, WritesHeader: true,
		Offloadable: true, PreservesHeaderValidity: true, PureOverwrite: true}
}

// NumOutputs implements Element.
func (e *EtherEncap) NumOutputs() int { return 1 }

// Signature implements Element.
func (e *EtherEncap) Signature() string {
	return fmt.Sprintf("EtherEncap/%v/%v", e.src, e.dst)
}

// Process implements Element.
func (e *EtherEncap) Process(b *netpkt.Batch) []*netpkt.Batch { return single(e.ProcessSingle(b)) }

// ProcessSingle implements SingleOut.
func (e *EtherEncap) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || len(p.Data) < netpkt.EthernetHeaderLen {
			continue
		}
		copy(p.Data[0:6], e.dst[:])
		copy(p.Data[6:12], e.src[:])
	}
	return b
}
