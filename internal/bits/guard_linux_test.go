//go:build linux

package bits

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedPages maps two pages and makes the second inaccessible, so any
// access to mem[page:] faults, and turns faults into panics on the
// calling test's goroutine until the test ends.
func guardedPages(t *testing.T) (mem []byte, page int) {
	t.Helper()
	page = syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	old := debug.SetPanicOnFault(true)
	t.Cleanup(func() { debug.SetPanicOnFault(old) })
	return mem, page
}

// TestSearchNeverReadsPastKeys places every keys array so that it ends
// where an inaccessible page begins, then searches it at every width,
// every length and every n on every path: a load that reaches even one
// byte past len(keys) faults.
func TestSearchNeverReadsPastKeys(t *testing.T) {
	mem, page := guardedPages(t)

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

// TestPrefetchNeverFaults prefetches where a load would fault: the last
// line before an inaccessible page (so the later lines reach into it),
// that page's first byte, and nil. A prefetch is a hint, never a load.
func TestPrefetchNeverFaults(t *testing.T) {
	mem, page := guardedPages(t)

	for _, c := range []struct {
		name string
		p    unsafe.Pointer
	}{
		{"last line before the guard page", unsafe.Pointer(&mem[page-64])},
		{"first byte of the guard page", unsafe.Add(unsafe.Pointer(&mem[0]), page)},
		{"nil", nil},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: prefetch faulted: %v", c.name, r)
				}
			}()
			Prefetch(c.p)
		}()
	}
}
