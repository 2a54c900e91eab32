//go:build linux

package bits

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// TestSearchNeverReadsPastKeys places every keys array so that it ends
// where an inaccessible page begins, then searches it at every width,
// every length and every n on every path: a load that reaches even one
// byte past len(keys) faults.
func TestSearchNeverReadsPastKeys(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	rng := rand.New(rand.NewSource(8))
	for _, width := range []int{8, 16, 32} {
		for l := 8; l <= 4*width; l += 8 {
			keys := mem[page-l : page : page]
			rng.Read(keys)
			for n := 1; n <= l*8/width; n++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("width %d, len(keys) %d, n %d: read past the end: %v", width, l, n, r)
						}
					}()
					checkSearch(t, rng.Uint64(), rng.Uint64(), keys, n, width)
				}()
			}
		}
	}
}
