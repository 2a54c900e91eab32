package bits

// The kernels in bits_amd64.s use SSE2, part of every amd64 CPU, plus
// BMI2 (PEXT, BZHI, SHLX) and LZCNT, which hasNative checks for.

// search is Search in one call: while Native is set it runs searchNative,
// otherwise it tail-calls searchGo.
//
//go:noescape
func search(w, mask uint64, keys []byte, n, width int) int

// searchNative PEXTs the probe out of w, compares it against every lane
// of keys, clears the comply bits at n and above and bit-scans the rest.
//
//go:noescape
func searchNative(w, mask uint64, keys []byte, n, width int) int

// pext is Pext64: pextNative while Native is set, otherwise pextGo.
func pext(v, mask uint64) uint64

// pextNative is a single PEXT instruction.
func pextNative(v, mask uint64) uint64

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// hasNative reports whether the CPU has BMI2 (CPUID leaf 7, EBX bit 8)
// and LZCNT (leaf 0x80000001, ECX bit 5).
func hasNative() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	maxExt, _, _, _ := cpuid(0x80000000, 0)
	if maxLeaf < 7 || maxExt < 0x80000001 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	_, _, ecxExt, _ := cpuid(0x80000001, 0)
	return ebx7&(1<<8) != 0 && ecxExt&(1<<5) != 0
}
