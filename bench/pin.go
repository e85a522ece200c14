package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that already runs on its one CPU. Its value
// is how many CPUs the benchmark was given before it chose one.
const pinnedEnv = "ADDRKV_BENCH_PINNED"

// hostCPUs is the number of CPUs the benchmark was started with.
func hostCPUs() int {
	if n, err := strconv.Atoi(os.Getenv(pinnedEnv)); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// pinToOneCPU restricts the benchmark, and with it every server and
// build it starts, to a single CPU of those it may use, by setting the
// affinity of this thread and executing the same binary again on it: the
// new image starts with one thread, so every later thread and child
// inherits the mask.
//
// On the reference host a hop between two virtual CPUs wakes an idle one
// through the hypervisor, which costs more than the request it carries
// and varies by a factor of two from one quarter second to the next. On
// one CPU the generator and the server hand over by a context switch, and
// the numbers are the processor time an operation costs, not the wake-up
// latency of the host.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	// The highest allowed CPU: the lowest is where a small guest's
	// interrupts and housekeeping tend to land.
	cpu, given := -1, 0
	for i, word := range mask {
		if word != 0 {
			cpu = i*64 + 63 - bits.LeadingZeros64(word)
			given += bits.OnesCount64(word)
		}
	}
	if cpu < 0 {
		return syscall.EINVAL
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(given)))
}
