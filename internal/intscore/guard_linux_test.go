package intscore

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestKernelsStayInSlices places a query and a class row so each ends
// where a page that faults on any access begins, for every tail length:
// a kernel that reads one word past either slice crashes the test.
func TestKernelsStayInSlices(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip("mmap:", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skip("mprotect:", err)
	}
	buf := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), page/8)
	rng := rand.New(rand.NewSource(36))
	fill := func(s []uint64) []uint64 {
		for w := range s {
			s[w] = rng.Uint64()
		}
		return s
	}
	const b = 3
	for words := 1; words <= 17; words++ {
		for _, end := range []string{"query", "row"} {
			q, row := fill(make([]uint64, 2*words)), fill(make([]uint64, b*words))
			if end == "query" {
				q = fill(buf[len(buf)-2*words:])
			} else {
				row = fill(buf[len(buf)-b*words:])
			}
			want := pureGo.rowDot(q, row, b)
			for _, k := range hostKernels() {
				if got := k.rowDot(q, row, b); got != want {
					t.Fatalf("%s words=%d, %s at the page end: %d, want %d", k.name, words, end, got, want)
				}
			}
		}
	}
}
