package ipsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func pair(t *testing.T) (*SA, *SA) {
	t.Helper()
	enc := []byte("0123456789abcdef")
	auth := []byte("secret-auth-key")
	tx, err := NewSA(0x1001, enc, auth)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSA(0x1001, enc, auth)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := pair(t)
	msgs := [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte("the quick brown fox"),
		bytes.Repeat([]byte{0xAA}, 1500),
	}
	for _, m := range msgs {
		esp, err := tx.Seal(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(esp) != len(m)+Overhead() {
			t.Errorf("len = %d, want %d", len(esp), len(m)+Overhead())
		}
		pt, err := rx.Open(esp)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(pt, m) {
			t.Errorf("round trip mismatch: %q != %q", pt, m)
		}
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	tx, _ := pair(t)
	m := bytes.Repeat([]byte("A"), 64)
	esp, _ := tx.Seal(nil, m)
	if bytes.Contains(esp, m) {
		t.Error("plaintext visible in ESP output")
	}
}

func TestTamperDetected(t *testing.T) {
	tx, rx := pair(t)
	esp, _ := tx.Seal(nil, []byte("payload"))
	for _, idx := range []int{8, len(esp) / 2, len(esp) - 1} {
		bad := append([]byte(nil), esp...)
		bad[idx] ^= 0x01
		if _, err := rx.Open(bad); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("tamper at %d: err = %v, want ErrAuthFailed", idx, err)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	tx, rx := pair(t)
	esp, _ := tx.Seal(nil, []byte("one"))
	if _, err := rx.Open(esp); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(esp); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: err = %v, want ErrReplay", err)
	}
}

func TestReplayWindowOutOfOrder(t *testing.T) {
	tx, rx := pair(t)
	var packets [][]byte
	for i := 0; i < 10; i++ {
		esp, _ := tx.Seal(nil, []byte{byte(i)})
		packets = append(packets, esp)
	}
	// Deliver 0, 5, 3, 9, 1 — all distinct, all inside the window.
	for _, i := range []int{0, 5, 3, 9, 1} {
		if _, err := rx.Open(packets[i]); err != nil {
			t.Fatalf("out-of-order delivery %d failed: %v", i, err)
		}
	}
	// Re-delivery of 3 must be caught.
	if _, err := rx.Open(packets[3]); !errors.Is(err, ErrReplay) {
		t.Errorf("replay of 3: err = %v", err)
	}
}

func TestReplayWindowStale(t *testing.T) {
	tx, rx := pair(t)
	var first []byte
	for i := 0; i < 70; i++ {
		esp, _ := tx.Seal(nil, []byte("x"))
		if i == 0 {
			first = esp
		} else if i == 69 {
			if _, err := rx.Open(esp); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sequence 1 is now 69 behind: outside the 64-packet window.
	if _, err := rx.Open(first); !errors.Is(err, ErrReplay) {
		t.Errorf("stale: err = %v, want ErrReplay", err)
	}
}

func TestFailedAuthDoesNotAdvanceWindow(t *testing.T) {
	tx, rx := pair(t)
	esp, _ := tx.Seal(nil, []byte("data"))
	bad := append([]byte(nil), esp...)
	bad[len(bad)-1] ^= 1
	if _, err := rx.Open(bad); !errors.Is(err, ErrAuthFailed) {
		t.Fatal("tamper not detected")
	}
	// The genuine packet must still be accepted.
	if _, err := rx.Open(esp); err != nil {
		t.Errorf("genuine packet rejected after forged copy: %v", err)
	}
}

func TestBadKeyLen(t *testing.T) {
	if _, err := NewSA(1, []byte("short"), []byte("a")); !errors.Is(err, ErrBadKeyLen) {
		t.Errorf("err = %v", err)
	}
}

func TestTruncated(t *testing.T) {
	_, rx := pair(t)
	if _, err := rx.Open(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
}

func TestWrongSPI(t *testing.T) {
	tx, _ := pair(t)
	other, _ := NewSA(0x2002, []byte("0123456789abcdef"), []byte("k"))
	esp, _ := tx.Seal(nil, []byte("m"))
	if _, err := other.Open(esp); !errors.Is(err, ErrUnknownSPI) {
		t.Errorf("err = %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	enc := []byte("fedcba9876543210")
	auth := []byte("hmac-key")
	tx, _ := NewSA(7, enc, auth)
	rx, _ := NewSA(7, enc, auth)
	f := func(msg []byte) bool {
		esp, err := tx.Seal(nil, msg)
		if err != nil {
			return false
		}
		pt, err := rx.Open(esp)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceSeal is the ESP transform written as the plain standard-library
// composition, with nothing reused: the wire format Seal must keep.
func referenceSeal(t *testing.T, spi, seq uint32, encKey, authKey, plaintext []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(encKey)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, espHeaderLen+ivLen+len(plaintext)+icvLen)
	binary.BigEndian.PutUint32(out[0:4], spi)
	binary.BigEndian.PutUint32(out[4:8], seq)
	iv := out[espHeaderLen : espHeaderLen+ivLen]
	binary.BigEndian.PutUint32(iv[0:4], spi)
	binary.BigEndian.PutUint32(iv[4:8], seq)
	cipher.NewCTR(block, iv).XORKeyStream(out[espHeaderLen+ivLen:len(out)-icvLen], plaintext)
	mac := hmac.New(sha1.New, authKey)
	mac.Write(out[:len(out)-icvLen])
	copy(out[len(out)-icvLen:], mac.Sum(nil)[:icvLen])
	return out
}

func TestSealMatchesReference(t *testing.T) {
	enc, auth := []byte("0123456789abcdef"), []byte("secret-auth-key")
	tx, _ := NewSA(0x2002, enc, auth)
	rx, _ := NewSA(0x2002, enc, auth)
	prefix := []byte("outer headers")
	for seq, size := range []int{0, 1, 15, 16, 17, 470, 1000} {
		msg := bytes.Repeat([]byte{byte(size), 0x5a}, size)[:size]
		// Seal appends behind the caller's bytes, into spare capacity that
		// holds stale data (the IV's zero tail must be written, not assumed).
		dst := bytes.Repeat([]byte{0xee}, len(prefix)+Overhead()+size)
		dst = dst[:copy(dst, prefix)]
		out, err := tx.Seal(dst, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || &out[0] != &dst[0] {
			t.Fatalf("%d B: Seal did not append in place", size)
		}
		esp := out[len(prefix):]
		if want := referenceSeal(t, 0x2002, uint32(seq+1), enc, auth, msg); !bytes.Equal(esp, want) {
			t.Fatalf("%d B: Seal output differs from the reference composition\n got %x\nwant %x", size, esp, want)
		}
		pt, err := rx.Open(esp)
		if err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("%d B: Open(Seal(x)) = %x, %v", size, pt, err)
		}
	}
}

func TestSealSequenceExhaustion(t *testing.T) {
	tx, rx := pair(t)
	tx.seq = math.MaxUint32 - 1
	esp, err := tx.Seal(nil, []byte("last"))
	if err != nil {
		t.Fatalf("sequence number 2^32-1 refused: %v", err)
	}
	if got := binary.BigEndian.Uint32(esp[4:8]); got != math.MaxUint32 {
		t.Fatalf("seq = %#x, want 0xffffffff", got)
	}
	if _, err := rx.Open(esp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // and it stays refused
		if out, err := tx.Seal(nil, []byte("wrapped")); !errors.Is(err, ErrSeqExhausted) || out != nil {
			t.Fatalf("Seal past the last sequence number = %x, %v; want ErrSeqExhausted", out, err)
		}
	}
}

// ctrAllocs is what the standard library's CTR stream costs on this
// toolchain — the one per-packet allocation the SA cannot avoid (1 object on
// go1.24, 3 before the AES rewrite).
func ctrAllocs(t *testing.T) float64 {
	t.Helper()
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	var buf [64]byte
	return testing.AllocsPerRun(200, func() { cipher.NewCTR(block, buf[:ivLen]).XORKeyStream(buf[:], buf[:]) })
}

func TestSealOpenAllocs(t *testing.T) {
	tx, rx := pair(t)
	msg := make([]byte, 1000)
	dst := make([]byte, 0, Overhead()+len(msg))
	ctr := ctrAllocs(t)
	var esp []byte
	if n := testing.AllocsPerRun(200, func() { esp, _ = tx.Seal(dst, msg) }); n > ctr {
		t.Errorf("Seal into a sized buffer: %.0f allocs, want the CTR stream's %.0f", n, ctr)
	}
	rx.Open(esp) // warm the HMAC's one-time state snapshot
	if n := testing.AllocsPerRun(200, func() {
		rx.started = false // replay window reopened: the same packet again
		if _, err := rx.Open(esp); err != nil {
			t.Fatal(err)
		}
	}); n > ctr+1 {
		t.Errorf("Open: %.0f allocs, want the CTR stream's %.0f plus the plaintext", n, ctr)
	}
}

func BenchmarkSeal64B(b *testing.B)   { benchSeal(b, 64) }
func BenchmarkSeal1500B(b *testing.B) { benchSeal(b, 1500) }

func benchSeal(b *testing.B, size int) {
	sa, _ := NewSA(1, []byte("0123456789abcdef"), []byte("k"))
	msg := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sa.Seal(nil, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen1500B(b *testing.B) {
	enc := []byte("0123456789abcdef")
	tx, _ := NewSA(1, enc, []byte("k"))
	msg := make([]byte, 1500)
	esp, _ := tx.Seal(nil, msg)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx, _ := NewSA(1, enc, []byte("k"))
		if _, err := rx.Open(esp); err != nil {
			b.Fatal(err)
		}
	}
}
