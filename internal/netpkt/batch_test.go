package netpkt

import (
	"sort"
	"testing"
	"testing/quick"
)

func makeBatch(t *testing.T, n int) *Batch {
	t.Helper()
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = BuildUDPv4(UDPPacketSpec{
			SrcIP: IPv4Addr(i), DstIP: IPv4Addr(1000 + i),
			SrcPort: uint16(i), DstPort: 80,
			Payload: []byte{byte(i)},
			FlowID:  uint64(i % 4),
		})
	}
	return NewBatch(42, pkts)
}

// mergeBySeq concatenates sub-batches and restores their packets' original
// order from SeqInBatch — what SplitBy's parts must carry for a consumer to
// put a split batch back together.
func mergeBySeq(parts []*Batch) []*Packet {
	var merged []*Packet
	for _, part := range parts {
		merged = append(merged, part.Packets...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].SeqInBatch < merged[j].SeqInBatch })
	return merged
}

func TestSplitByAndMergeRestoresOrder(t *testing.T) {
	b := makeBatch(t, 16)
	parts := b.SplitBy(func(p *Packet) int { return int(p.FlowID) })
	if len(parts) != 4 {
		t.Fatalf("SplitBy produced %d parts, want 4", len(parts))
	}
	total := 0
	for _, part := range parts {
		total += part.Len()
		if part.ID != 42 {
			t.Errorf("sub-batch lost origin ID: %d", part.ID)
		}
	}
	if total != 16 {
		t.Fatalf("split lost packets: %d", total)
	}
	merged := mergeBySeq(parts)
	if len(merged) != 16 {
		t.Fatalf("merged len = %d", len(merged))
	}
	for i, p := range merged {
		if p.SeqInBatch != i {
			t.Fatalf("packet %d out of order (seq %d)", i, p.SeqInBatch)
		}
	}
}

func TestSplitBySkipsDropped(t *testing.T) {
	b := makeBatch(t, 8)
	b.Packets[3].Drop("test")
	parts := b.SplitBy(func(p *Packet) int { return 0 })
	if len(parts) != 1 || parts[0].Len() != 7 {
		t.Fatalf("parts = %d, len = %d", len(parts), parts[0].Len())
	}
}

func TestBatchCounters(t *testing.T) {
	b := makeBatch(t, 5)
	if b.Live() != 5 {
		t.Errorf("Live = %d", b.Live())
	}
	wantBytes := 0
	for _, p := range b.Packets {
		wantBytes += p.Len()
	}
	if b.Bytes() != wantBytes {
		t.Errorf("Bytes = %d, want %d", b.Bytes(), wantBytes)
	}
	b.Packets[0].Drop("x")
	if b.Live() != 4 {
		t.Errorf("Live after drop = %d", b.Live())
	}
	if live, bytes := b.LiveBytes(); live != b.Live() || bytes != b.Bytes() {
		t.Errorf("LiveBytes = %d, %d; Live, Bytes = %d, %d", live, bytes, b.Live(), b.Bytes())
	}
}

func TestBatchFilter(t *testing.T) {
	b := makeBatch(t, 10)
	b.Filter("odd", func(p *Packet) bool { return p.SeqInBatch%2 == 0 })
	if b.Live() != 5 {
		t.Errorf("Live = %d, want 5", b.Live())
	}
	for _, p := range b.Packets {
		if p.Dropped && p.DropReason != "odd" {
			t.Errorf("wrong drop reason %q", p.DropReason)
		}
	}
}

func TestBatchCloneIndependent(t *testing.T) {
	b := makeBatch(t, 3)
	c := b.Clone()
	c.Packets[0].Data[20] ^= 0xff
	c.Packets[1].Drop("cloned")
	if b.Packets[0].Data[20] == c.Packets[0].Data[20] {
		t.Error("clone shares packet data")
	}
	if b.Packets[1].Dropped {
		t.Error("clone shares packet metadata")
	}
}

func TestSplitMergeProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		if len(classes) == 0 {
			return true
		}
		pkts := make([]*Packet, len(classes))
		for i, c := range classes {
			pkts[i] = NewPacket(make([]byte, 64))
			pkts[i].Paint = c % 5
		}
		b := NewBatch(1, pkts)
		parts := b.SplitBy(func(p *Packet) int { return int(p.Paint) })
		merged := mergeBySeq(parts)
		if len(merged) != len(classes) {
			return false
		}
		for i, p := range merged {
			if p.Paint != classes[i]%5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompletionQueueOrderedRelease(t *testing.T) {
	q := NewCompletionQueue(0)
	b0 := NewBatch(0, nil)
	b1 := NewBatch(1, nil)
	b2 := NewBatch(2, nil)
	q.Submit(b0, 2)
	q.Submit(b1, 1)
	q.Submit(b2, 1)

	q.Complete(1) // batch 1 done first, but must wait for batch 0
	if got := q.Pop(); got != nil {
		t.Fatalf("Pop released batch %d before head of line", got.ID)
	}
	q.Complete(0)
	if got := q.Pop(); got != nil {
		t.Fatal("Pop released batch 0 with one part outstanding")
	}
	q.Complete(0) // second part
	if got := q.Pop(); got == nil || got.ID != 0 {
		t.Fatalf("Pop = %v, want batch 0", got)
	}
	if got := q.Pop(); got == nil || got.ID != 1 {
		t.Fatalf("Pop = %v, want batch 1", got)
	}
	if got := q.Pop(); got != nil {
		t.Fatalf("Pop = %v, want nil (batch 2 incomplete)", got)
	}
	q.Complete(2)
	if got := q.Pop(); got == nil || got.ID != 2 {
		t.Fatalf("Pop = %v, want batch 2", got)
	}
	if q.PendingLen() != 0 {
		t.Errorf("PendingLen = %d", q.PendingLen())
	}
}

func TestCompletionQueueUnknownID(t *testing.T) {
	q := NewCompletionQueue(0)
	q.Complete(99) // must not panic or corrupt state
	if q.Pop() != nil {
		t.Error("Pop returned a batch from nowhere")
	}
}
