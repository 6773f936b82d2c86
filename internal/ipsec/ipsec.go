// Package ipsec implements the ESP data path of the paper's IPsec gateway
// NF: AES-128-CTR encryption with HMAC-SHA1 authentication (the exact suite
// the paper uses), a security-association database, and the standard 64-bit
// anti-replay window. It is a functional software implementation; the
// platform simulator charges per-byte costs derived from its
// micro-benchmarks.
//
// HMAC-SHA1 runs on the CPU's SHA extensions where it has them: an amd64
// SHA-NI compression function (chosen once by CPUID) starts from inner and
// outer pad states NewSA precomputes. Elsewhere an SA keys the standard
// library's HMAC once and rewinds it per packet. AES-CTR is the standard library's. Seal works in the caller's
// buffer: the payload moves behind the ESP header and IV, is encrypted in
// place and gets its ICV appended, so what is left per packet is the CTR
// stream object. An SA is single-goroutine state.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
)

// Truncated HMAC-SHA1-96 ICV length used by ESP.
const icvLen = 12

// ESP header: SPI (4) + sequence number (4).
const espHeaderLen = 8

// AES-CTR IV carried in each ESP packet.
const ivLen = 16

// Errors returned by the ESP transforms.
var (
	ErrAuthFailed = errors.New("ipsec: ICV verification failed")
	ErrReplay     = errors.New("ipsec: replayed or stale sequence number")
	ErrTruncated  = errors.New("ipsec: truncated ESP packet")
	ErrUnknownSPI = errors.New("ipsec: no SA for SPI")
	ErrBadKeyLen  = errors.New("ipsec: AES-128 requires a 16-byte key")
	// ErrSeqExhausted reports an SA whose 32-bit sequence counter is used
	// up: sending on would reuse an (SPI, seq) pair — here also a CTR IV —
	// so the SA must be replaced (RFC 4303 §3.3.3).
	ErrSeqExhausted = errors.New("ipsec: sequence number space exhausted")
)

// SA is one security association.
type SA struct {
	SPI   uint32
	block cipher.Block
	// On the SHA-NI kernel, inner and outer are HMAC-SHA1's pad states
	// under the authentication key and tail pads a sum's last block;
	// without it, mac is the standard library's HMAC, rewound for every
	// packet. icv receives the untruncated sum.
	inner, outer [5]uint32
	tail         [128]byte
	mac          hash.Hash
	icv          [sha1.Size]byte

	// Outbound state.
	seq uint32

	// Inbound anti-replay state (RFC 4303 64-packet window).
	replayHi  uint32 // highest sequence number seen
	replayMap uint64 // bitmap of the 64 numbers at and below replayHi
	started   bool
}

// NewSA creates a security association. encKey must be 16 bytes (AES-128);
// authKey may be any length (HMAC).
func NewSA(spi uint32, encKey, authKey []byte) (*SA, error) {
	if len(encKey) != 16 {
		return nil, ErrBadKeyLen
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	sa := &SA{SPI: spi, block: block}
	if !useSHANI {
		sa.mac = hmac.New(sha1.New, authKey)
		return sa, nil
	}
	if len(authKey) > 64 {
		s := sha1.Sum(authKey)
		authKey = s[:]
	}
	pad := sa.tail[:64]
	for i := range pad {
		pad[i] = 0x36
	}
	for i, c := range authKey {
		pad[i] ^= c
	}
	sa.inner = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	sa.outer = sa.inner
	blockSHANI(&sa.inner, pad)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	blockSHANI(&sa.outer, pad)
	return sa, nil
}

// Seal encapsulates a plaintext into an ESP payload in place. esp holds
// the plaintext followed by Overhead() bytes of room, whose contents do not
// matter (a shorter esp panics); on return it holds
//
//	SPI(4) | Seq(4) | IV(16) | ciphertext | ICV(12)
//
// The IV is derived deterministically from (SPI, seq) — unique per packet
// under a given SA, which CTR mode requires. On error esp is untouched.
func (sa *SA) Seal(esp []byte) error {
	n := len(esp) - icvLen
	if sa.seq == math.MaxUint32 {
		return ErrSeqExhausted
	}
	sa.seq++

	ct := esp[espHeaderLen+ivLen : n]
	copy(ct, esp) // the plaintext moves behind the header and IV
	binary.BigEndian.PutUint32(esp[0:4], sa.SPI)
	binary.BigEndian.PutUint32(esp[4:8], sa.seq)

	// The IV repeats (SPI, seq); its tail is the block counter, from zero.
	iv := esp[espHeaderLen : espHeaderLen+ivLen]
	copy(iv, esp[:espHeaderLen])
	clear(iv[espHeaderLen:])

	cipher.NewCTR(sa.block, iv).XORKeyStream(ct, ct)
	copy(esp[n:], sa.sum(esp[:n]))
	return nil
}

// SetSeq sets the outbound sequence counter to the last number sent: the
// next Seal carries seq+1. It restores a saved SA, and lets a test reach
// ErrSeqExhausted without 2³² seals.
func (sa *SA) SetSeq(seq uint32) { sa.seq = seq }

// Seq returns the last sequence number sent (what SetSeq restores).
func (sa *SA) Seq() uint32 { return sa.seq }

// sum returns the truncated HMAC of b in SA-owned scratch, valid until the
// next call.
func (sa *SA) sum(b []byte) []byte {
	if sa.mac == nil {
		h, o := sa.inner, sa.outer
		n := len(b) &^ 63
		blockSHANI(&h, b[:n])
		sa.final(&h, b[n:], 64+len(b))
		sa.final(&o, sa.icv[:], 64+sha1.Size)
		return sa.icv[:icvLen]
	}
	sa.mac.Reset()
	sa.mac.Write(b)
	return sa.mac.Sum(sa.icv[:0])[:icvLen]
}

// final compresses rest, the last partial block of a hashed length of total
// bytes, with SHA-1's padding, and stores h in icv.
func (sa *SA) final(h *[5]uint32, rest []byte, total int) {
	n := copy(sa.tail[:], rest)
	end := 64
	if n >= 56 {
		end = 128
	}
	sa.tail[n] = 0x80
	clear(sa.tail[n+1 : end-8])
	binary.BigEndian.PutUint64(sa.tail[end-8:end], uint64(total)*8)
	blockSHANI(h, sa.tail[:end])
	for i, w := range h {
		binary.BigEndian.PutUint32(sa.icv[4*i:], w)
	}
}

// Open verifies and decapsulates an ESP payload produced by Seal, enforcing
// the anti-replay window. It returns the plaintext.
func (sa *SA) Open(esp []byte) ([]byte, error) {
	if len(esp) < espHeaderLen+ivLen+icvLen {
		return nil, ErrTruncated
	}
	spi := binary.BigEndian.Uint32(esp[0:4])
	if spi != sa.SPI {
		return nil, fmt.Errorf("%w: got %#x want %#x", ErrUnknownSPI, spi, sa.SPI)
	}
	seq := binary.BigEndian.Uint32(esp[4:8])

	if err := sa.checkReplay(seq); err != nil {
		return nil, err
	}

	if !hmac.Equal(sa.sum(esp[:len(esp)-icvLen]), esp[len(esp)-icvLen:]) {
		return nil, ErrAuthFailed
	}

	sa.acceptReplay(seq)

	iv := esp[espHeaderLen : espHeaderLen+ivLen]
	ct := esp[espHeaderLen+ivLen : len(esp)-icvLen]
	pt := make([]byte, len(ct))
	cipher.NewCTR(sa.block, iv).XORKeyStream(pt, ct)
	return pt, nil
}

// checkReplay validates seq against the 64-packet window without mutating
// state (mutation happens only after the ICV verifies).
func (sa *SA) checkReplay(seq uint32) error {
	if !sa.started {
		return nil
	}
	switch {
	case seq > sa.replayHi:
		return nil
	case sa.replayHi-seq >= 64:
		return ErrReplay
	default:
		if sa.replayMap&(1<<(sa.replayHi-seq)) != 0 {
			return ErrReplay
		}
		return nil
	}
}

// acceptReplay records an authenticated sequence number.
func (sa *SA) acceptReplay(seq uint32) {
	if !sa.started {
		sa.started = true
		sa.replayHi = seq
		sa.replayMap = 1
		return
	}
	if seq > sa.replayHi {
		shift := seq - sa.replayHi
		if shift >= 64 {
			sa.replayMap = 1
		} else {
			sa.replayMap = sa.replayMap<<shift | 1
		}
		sa.replayHi = seq
		return
	}
	sa.replayMap |= 1 << (sa.replayHi - seq)
}

// Overhead returns the byte overhead Seal adds to a plaintext.
func Overhead() int { return espHeaderLen + ivLen + icvLen }
