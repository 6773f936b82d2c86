package netpkt

import "testing"

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
	if len(q.pending) != 0 {
		t.Errorf("pending = %d", len(q.pending))
	}
}

func TestCompletionQueueUnknownID(t *testing.T) {
	q := NewCompletionQueue(0)
	q.Complete(99) // must not panic or corrupt state
	if q.Pop() != nil {
		t.Error("Pop returned a batch from nowhere")
	}
}
