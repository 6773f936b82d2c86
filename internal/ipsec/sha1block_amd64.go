//go:build amd64

package ipsec

// useSHANI selects the SHA-NI compression function, once, by CPUID.
var useSHANI = hasSHANI()

// blockSHANI compresses the whole 64-byte blocks of p into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func hasSHANI() bool
