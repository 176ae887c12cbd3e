//go:build unix

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats whose last element is the last four bytes
// before an unreadable page: a kernel that reads or writes one element past
// the end of a slice cut from the tail faults instead of passing.
func guardedFloats(tb testing.TB, n int) []float32 {
	tb.Helper()
	page := syscall.Getpagesize()
	size := (n*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		tb.Fatalf("mmap: %v", err)
	}
	tb.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over either way
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		tb.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-n*4])), n)
}
