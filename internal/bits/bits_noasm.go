//go:build !amd64

package bits

import "unsafe"

// Without the amd64 kernels Native is always false and every search and
// PEXT takes the portable path, and Prefetch does nothing.

func hasNative() bool { return false }

func search(w, mask uint64, keys []byte, n, width int) int {
	return searchGo(w, mask, keys, n, width)
}

func pext(v, mask uint64) uint64 { return pextGo(v, mask) }

func searchNative(w, mask uint64, keys []byte, n, width int) int {
	panic("bits: no native search on this architecture")
}

func pextNative(v, mask uint64) uint64 {
	panic("bits: no native PEXT on this architecture")
}

// Prefetch is a no-op: Go has no portable prefetch.
func Prefetch(p unsafe.Pointer) {}
