package ipsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"slices"
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

// hmacPaths names the two ways an SA computes its ICV: the one NewSA chose
// for this CPU, and the standard library's HMAC, which NewSA chooses where
// there is no SHA-NI. Setting mac is the seam that runs the second on every
// host.
var hmacPaths = []string{"NewSA", "stdlib"}

// newSA builds an SA on the named HMAC path.
func newSA(t testing.TB, path string, spi uint32, enc, auth []byte) *SA {
	t.Helper()
	sa, err := NewSA(spi, enc, auth)
	if err != nil {
		t.Fatal(err)
	}
	if path == "stdlib" {
		sa.mac = hmac.New(sha1.New, auth)
	}
	return sa
}

// seal returns plaintext sealed into a fresh buffer, or nil and the error.
func seal(sa *SA, plaintext []byte) ([]byte, error) {
	esp := append(slices.Clip(plaintext), make([]byte, Overhead())...)
	if err := sa.Seal(esp); err != nil {
		return nil, err
	}
	return esp, nil
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
		esp, err := seal(tx, m)
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
	esp, _ := seal(tx, m)
	if bytes.Contains(esp, m) {
		t.Error("plaintext visible in ESP output")
	}
}

func TestTamperDetected(t *testing.T) {
	tx, rx := pair(t)
	esp, _ := seal(tx, []byte("payload"))
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
	esp, _ := seal(tx, []byte("one"))
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
		esp, _ := seal(tx, []byte{byte(i)})
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
		esp, _ := seal(tx, []byte("x"))
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
	esp, _ := seal(tx, []byte("data"))
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
	esp, _ := seal(tx, []byte("m"))
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
		esp, err := seal(tx, msg)
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
func referenceSeal(t testing.TB, spi, seq uint32, encKey, authKey, plaintext []byte) []byte {
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

// sealMatches seals msg in place, inside a larger buffer whose room and
// tail hold stale bytes, and checks the result against the reference, the
// bytes past the ESP payload, and Open.
func sealMatches(t testing.TB, tx, rx *SA, enc, auth, msg []byte) {
	t.Helper()
	size := len(msg)
	buf := bytes.Repeat([]byte{0xee}, size+Overhead()+8)
	copy(buf, msg)
	esp := buf[:size+Overhead()]
	if err := tx.Seal(esp); err != nil {
		t.Fatal(err)
	}
	if want := referenceSeal(t, tx.SPI, tx.Seq(), enc, auth, msg); !bytes.Equal(esp, want) {
		t.Fatalf("%d B, %d B key: Seal output differs from the reference composition\n got %x\nwant %x", size, len(auth), esp, want)
	}
	if !bytes.Equal(buf[len(esp):], bytes.Repeat([]byte{0xee}, 8)) {
		t.Fatalf("%d B: Seal wrote past its buffer", size)
	}
	rx.started = false // sequence numbers restart with every key
	if pt, err := rx.Open(esp); err != nil || !bytes.Equal(pt, msg) {
		t.Fatalf("%d B: Open(Seal(x)) = %x, %v", size, pt, err)
	}
}

// authKeys spans the HMAC key shapes: empty, SHA-1 sized, exactly one
// block, and the two longer ones that are hashed first.
var authKeys = []int{0, 20, 64, 65, 80}

func TestSealMatchesReference(t *testing.T) {
	enc := []byte("0123456789abcdef")
	if !useSHANI {
		t.Log("no SHA-NI kernel on this CPU: both paths run the standard-library HMAC")
	}
	msg := make([]byte, 2100)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	for _, path := range hmacPaths {
		t.Run(path, func(t *testing.T) {
			for _, k := range authKeys {
				auth := bytes.Repeat([]byte{byte(k) | 1}, k)
				tx := newSA(t, path, 0x2002, enc, auth)
				rx := newSA(t, path, 0x2002, enc, auth)
				// Every length 0–2100 crosses each padding edge (55/56/63/64
				// bytes of tail) in both the ciphertext and the signed region.
				for size := 0; size <= len(msg); size++ {
					sealMatches(t, tx, rx, enc, auth, msg[:size])
				}
			}
		})
	}
}

func FuzzSealVsReference(f *testing.F) {
	f.Add([]byte("k"), []byte("payload"))
	f.Add(bytes.Repeat([]byte{0xaa}, 80), bytes.Repeat([]byte{1}, 119))
	enc := []byte("0123456789abcdef")
	f.Fuzz(func(t *testing.T, auth, msg []byte) {
		tx, _ := NewSA(0x3003, enc, auth)
		rx, _ := NewSA(0x3003, enc, auth)
		tx.SetSeq(uint32(len(msg)))
		sealMatches(t, tx, rx, enc, auth, msg)
	})
}

// The kernel against crypto/hmac, full 20-byte sums, over every message
// length up to 2 099 and the key shapes of authKeys.
func TestKernelMatchesStdlibHMAC(t *testing.T) {
	if !useSHANI {
		t.Skip("no SHA-NI kernel on this CPU")
	}
	msg := make([]byte, 2099)
	for i := range msg {
		msg[i] = byte(i ^ i>>5)
	}
	for _, k := range authKeys {
		key := bytes.Repeat([]byte{0x5c ^ byte(k)}, k)
		sa, _ := NewSA(1, []byte("0123456789abcdef"), key)
		ref := hmac.New(sha1.New, key)
		for n := 0; n <= len(msg); n++ {
			sa.sum(msg[:n])
			ref.Reset()
			ref.Write(msg[:n])
			if want := ref.Sum(nil); !bytes.Equal(sa.icv[:], want) {
				t.Fatalf("%d B key, %d B message: kernel %x, crypto/hmac %x", k, n, sa.icv, want)
			}
		}
	}
}

// RFC 2202's HMAC-SHA1 vectors, on both HMAC paths; the ICV is their first
// 12 bytes, and either path leaves the full sum in icv.
func TestRFC2202(t *testing.T) {
	hexb := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rep := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	for i, v := range []struct {
		key, data []byte
		digest    string
	}{
		{rep(0x0b, 20), []byte("Hi There"), "b617318655057264e28bc0b6fb378c8ef146be00"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{rep(0xaa, 20), rep(0xdd, 50), "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
		{hexb("0102030405060708090a0b0c0d0e0f10111213141516171819"), rep(0xcd, 50), "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
		{rep(0x0c, 20), []byte("Test With Truncation"), "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
		{rep(0xaa, 80), []byte("Test Using Larger Than Block-Size Key - Hash Key First"), "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
		{rep(0xaa, 80), []byte("Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"), "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"},
	} {
		for _, path := range hmacPaths {
			sa := newSA(t, path, 1, []byte("0123456789abcdef"), v.key)
			if got, want := sa.sum(v.data), hexb(v.digest)[:icvLen]; !bytes.Equal(got, want) {
				t.Errorf("case %d, %s: HMAC-SHA1-96 = %x, want %x", i+1, path, got, want)
			}
			if full := hex.EncodeToString(sa.icv[:]); full != v.digest {
				t.Errorf("case %d, %s: HMAC-SHA1 = %s, want %s", i+1, path, full, v.digest)
			}
		}
	}
}

func TestSealSequenceExhaustion(t *testing.T) {
	tx, rx := pair(t)
	tx.seq = math.MaxUint32 - 1
	esp, err := seal(tx, []byte("last"))
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
		if out, err := seal(tx, []byte("wrapped")); !errors.Is(err, ErrSeqExhausted) || out != nil {
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
	ctr := ctrAllocs(t)
	enc, auth := []byte("0123456789abcdef"), []byte("secret-auth-key")
	for _, path := range hmacPaths {
		t.Run(path, func(t *testing.T) {
			tx := newSA(t, path, 0x1001, enc, auth)
			rx := newSA(t, path, 0x1001, enc, auth)
			esp := make([]byte, 1000+Overhead())
			if n := testing.AllocsPerRun(200, func() { _ = tx.Seal(esp) }); n > ctr {
				t.Errorf("Seal in place: %.0f allocs, want the CTR stream's %.0f", n, ctr)
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
		})
	}
}

func BenchmarkSeal64B(b *testing.B)   { benchSeal(b, 64) }
func BenchmarkSeal1500B(b *testing.B) { benchSeal(b, 1500) }

func benchSeal(b *testing.B, size int) {
	sa, _ := NewSA(1, []byte("0123456789abcdef"), []byte("k"))
	esp := make([]byte, size+Overhead())
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sa.Seal(esp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen1500B(b *testing.B) {
	enc := []byte("0123456789abcdef")
	tx, _ := NewSA(1, enc, []byte("k"))
	rx, _ := NewSA(1, enc, []byte("k"))
	esp, _ := seal(tx, make([]byte, 1500))
	b.SetBytes(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.started = false // replay window reopened: the same packet again
		if _, err := rx.Open(esp); err != nil {
			b.Fatal(err)
		}
	}
}

// The kernel and the standard library's HMAC alone, over the signed bytes
// of a 1 KiB frame's ESP payload.
func BenchmarkHMAC1014B(b *testing.B) {
	msg, key := make([]byte, 1014), []byte("auth")
	b.Run("stdlib", func(b *testing.B) {
		m := hmac.New(sha1.New, key)
		var out [sha1.Size]byte
		b.SetBytes(int64(len(msg)))
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.Write(msg)
			m.Sum(out[:0])
		}
	})
	b.Run("kernel", func(b *testing.B) {
		if !useSHANI {
			b.Skip("no SHA-NI kernel on this CPU")
		}
		sa, _ := NewSA(1, []byte("0123456789abcdef"), key)
		b.SetBytes(int64(len(msg)))
		for i := 0; i < b.N; i++ {
			sa.sum(msg)
		}
	})
}
