//go:build !amd64

package ipsec

// useSHANI is false where there is no SHA-NI kernel: every SA runs the
// standard library's HMAC.
const useSHANI = false

func blockSHANI(h *[5]uint32, p []byte) { panic("ipsec: no SHA-NI kernel in this build") }
