//go:build linux

package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a harness process that already runs pinned.
const pinnedEnv = "DECORR_BENCH_PINNED"

// pinToOneCPU confines the harness, and with it every process it starts, to
// the highest-numbered CPU it is allowed on: it narrows the calling thread's
// affinity mask to that CPU and re-executes itself, so the new image's
// runtime (and decorrd's, which inherits the mask) sees one CPU and sizes
// GOMAXPROCS and `-workers 0` to it. It returns only on error or when the
// process is already pinned.
//
// Why: the reference box is a 2-vCPU VM that at times gets two cores' worth
// of CPU and at times one, for minutes on end. A single busy thread runs at
// the same speed in both states; anything that uses the second vCPU (morsel
// workers, the collector's background workers, client and server overlapping)
// runs up to 1.65x slower in the second. Keeping the benchmark's total demand
// to one CPU is what makes two sets of runs agree.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	// The mask set below belongs to this thread, and Exec must keep it.
	runtime.LockOSThread()
	var mask [1024 / bits.UintSize]uint // room for 1024 CPUs
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i, word := range mask {
		if word != 0 {
			cpu = i*bits.UintSize + bits.Len(word) - 1
		}
		mask[i] = 0
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity returned an empty mask")
	}
	mask[cpu/bits.UintSize] = 1 << (cpu % bits.UintSize)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=cpu%d of %d", pinnedEnv, cpu, runtime.NumCPU()))
	return fmt.Errorf("re-exec %s: %w", exe, syscall.Exec(exe, os.Args, env))
}
