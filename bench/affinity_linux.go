//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on (nil if the
// kernel will not say).
func allowedCPUs() []int {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < 64*len(mask); i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread moves the calling OS thread to one CPU and keeps it there. The
// caller has locked its goroutine to the thread.
func pinThread(cpu int) bool {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	return errno == 0
}
