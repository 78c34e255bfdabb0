package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID from <time.h>.
const clockProcessCPUTime = 2

// cpuTime is the CPU time the process has used, user and system, over
// all its threads, in nanoseconds.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
