package traffic

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"nfcompass/internal/netpkt"
)

// nanoCapture hand-builds a nanosecond-magic capture with the given order.
func nanoCapture(order binary.ByteOrder, magic uint32, frames [][]byte) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	// The magic is written in the capture's own byte order: a reader
	// probing with the opposite order sees the byte-swapped constant.
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], 2)
	order.PutUint16(hdr[6:8], 4)
	order.PutUint32(hdr[16:20], 65535)
	order.PutUint32(hdr[20:24], 1)
	buf.Write(hdr)
	rec := make([]byte, 16)
	for i, f := range frames {
		order.PutUint32(rec[0:4], uint32(i+1))   // sec
		order.PutUint32(rec[4:8], uint32(i)*137) // nanoseconds
		order.PutUint32(rec[8:12], uint32(len(f)))
		order.PutUint32(rec[12:16], uint32(len(f)))
		buf.Write(rec)
		buf.Write(f)
	}
	return buf.Bytes()
}

func TestPcapNanosecondMagics(t *testing.T) {
	frames := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	for _, tc := range []struct {
		name  string
		order binary.ByteOrder
	}{
		{"little-endian 0xa1b23c4d", binary.LittleEndian},
		{"big-endian 0x4d3cb2a1", binary.BigEndian},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capt := nanoCapture(tc.order, 0xa1b23c4d, frames)
			pkts, err := ReadPcap(bytes.NewReader(capt))
			if err != nil {
				t.Fatal(err)
			}
			if len(pkts) != 2 {
				t.Fatalf("packets = %d", len(pkts))
			}
			// Nanosecond resolution must survive exactly (no /1e3*1e3).
			if pkts[1].Arrival != 2*1e9+137 {
				t.Errorf("arrival = %d, want %d", pkts[1].Arrival, int64(2*1e9+137))
			}
			pr, err := NewPcapReader(bytes.NewReader(capt))
			if err != nil {
				t.Fatal(err)
			}
			if !pr.nano {
				t.Error("nano = false for nanosecond capture")
			}
		})
	}
}

// TestPcapStreamingMatchesReadPcap: the incremental reader and the
// materializing reader must agree record for record.
func TestPcapStreamingMatchesReadPcap(t *testing.T) {
	gen := NewGenerator(Config{Size: IMIX{}, Seed: 9, Flows: 32})
	pkts := make([]*netpkt.Packet, 300)
	for i := range pkts {
		pkts[i] = gen.NextPacket()
		pkts[i].Arrival = int64(i) * 7_000
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	capt := buf.Bytes()

	whole, err := ReadPcap(bytes.NewReader(capt))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPcapReader(bytes.NewReader(capt))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*netpkt.Packet
	for {
		p, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, p)
	}
	if len(streamed) != len(whole) {
		t.Fatalf("streamed %d records, materialized %d", len(streamed), len(whole))
	}
	for i := range whole {
		if !bytes.Equal(streamed[i].Data, whole[i].Data) || streamed[i].Arrival != whole[i].Arrival {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestPcapWriterStreaming: the incremental writer produces byte-identical
// output to WritePcap.
func TestPcapWriterStreaming(t *testing.T) {
	gen := NewGenerator(Config{Size: Fixed(200), Seed: 4})
	pkts := make([]*netpkt.Packet, 40)
	for i := range pkts {
		pkts[i] = gen.NextPacket()
		pkts[i].Arrival = int64(i) * 1_500_000
	}
	var whole, streamed bytes.Buffer
	if err := WritePcap(&whole, pkts); err != nil {
		t.Fatal(err)
	}
	pw, err := NewPcapWriter(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := pw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatal("streaming writer output differs from WritePcap")
	}
}

func TestPcapMalformedRecords(t *testing.T) {
	mk := func() []byte {
		gen := NewGenerator(Config{Size: Fixed(96), Seed: 5})
		var buf bytes.Buffer
		_ = WritePcap(&buf, []*netpkt.Packet{gen.NextPacket(), gen.NextPacket()})
		return buf.Bytes()
	}
	t.Run("cut mid record header", func(t *testing.T) {
		capt := mk()
		if _, err := ReadPcap(bytes.NewReader(capt[:24+7])); err == nil {
			t.Error("accepted capture cut inside a record header")
		}
	})
	t.Run("cut mid record body", func(t *testing.T) {
		capt := mk()
		if _, err := ReadPcap(bytes.NewReader(capt[:24+16+10])); err == nil {
			t.Error("accepted capture cut inside a record body")
		}
	})
	t.Run("oversized incl length", func(t *testing.T) {
		capt := mk()
		binary.LittleEndian.PutUint32(capt[24+8:24+12], 1<<20) // incl over every cap
		if _, err := ReadPcap(bytes.NewReader(capt)); err == nil {
			t.Error("accepted record claiming 1MiB in a 65535-snaplen capture")
		}
	})
	t.Run("streaming reader surfaces truncation", func(t *testing.T) {
		capt := mk()
		pr, err := NewPcapReader(bytes.NewReader(capt[:len(capt)-5]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Next(); err != nil {
			t.Fatalf("first record should be intact: %v", err)
		}
		if _, err := pr.Next(); err == nil {
			t.Error("truncated final record not reported")
		}
	})
	t.Run("pcapng magic rejected", func(t *testing.T) {
		ng := []byte{0x0a, 0x0d, 0x0d, 0x0a, 0, 0, 0, 28}
		ng = append(ng, make([]byte, 24)...)
		if _, err := ReadPcap(bytes.NewReader(ng)); err == nil {
			t.Error("pcapng accepted")
		}
	})
}

// FuzzPcapRoundTrip: write → read → write must be byte-identical for any
// packet contents and timestamps (sizes under the snaplen, so origlen ==
// incl and no truncation asymmetry).
func FuzzPcapRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, int64(0))
	f.Add([]byte{}, int64(123_456_789))
	f.Add(bytes.Repeat([]byte{0xAB}, 1500), int64(-5))
	f.Fuzz(func(t *testing.T, data []byte, arrival int64) {
		if len(data) > pcapSnapLen {
			data = data[:pcapSnapLen]
		}
		p := netpkt.NewPacket(data)
		p.Arrival = arrival

		var first bytes.Buffer
		if err := WritePcap(&first, []*netpkt.Packet{p}); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPcap(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != 1 {
			t.Fatalf("read back %d packets", len(back))
		}
		if !bytes.Equal(back[0].Data, data) {
			t.Fatal("payload bytes changed across the round trip")
		}
		var second bytes.Buffer
		if err := WritePcap(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("write→read→write not byte-identical")
		}
	})
}
