package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines the benchmark — generator, daemon and every
// snakestore subcommand, which inherit the mask — to a single processor, the
// highest-numbered one it may use (device interrupts land on the lowest).
//
// The reference box is two virtual processors of a shared host. A request
// that hops between them pays an inter-processor interrupt and the wake-up of
// a halted virtual processor, both of which the host prices differently from
// minute to minute, and two busy virtual processors may or may not share one
// physical core. Measured in alternation on the same commit, w7-warm's
// throughput spread 7 % of its median over eight runs with two clients on two
// processors, 13 % with one client on two, and 3 % with everything on one;
// point's median latency 10 %, 15 % and 2 % (README, Load shape). On one
// processor client and daemon simply take turns, the processor never idles
// inside the window, and the numbers are the program's.
//
// An affinity mask set after start-up covers only the calling thread, so the
// process sets the mask and executes itself again: the new image starts
// with one thread, every later thread inherits its mask, and both Go
// runtimes (this one and the daemon's) size themselves to one processor.
// It returns the processor chosen.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1,024 processors
	get := func() error {
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if errno != 0 {
			return fmt.Errorf("sched_getaffinity: %v", errno)
		}
		return nil
	}
	runtime.LockOSThread() // the mask read, set and carried across exec is this thread's
	if err := get(); err != nil {
		return 0, err
	}
	allowed, last := 0, 0
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			allowed++
			last = cpu
		}
	}
	if allowed <= 1 {
		runtime.UnlockOSThread()
		return last, nil
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_setaffinity: %v", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	return 0, syscall.Exec(exe, os.Args, os.Environ())
}
