package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity set (sched_setaffinity(2)), for up
// to 1,024 CPUs.
type cpuMask [16]uint64

// threadAffinity is the calling thread's CPU set.
func threadAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setThreadAffinity(m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpus lists the CPUs in m in ascending order.
func (m cpuMask) cpus() []int {
	var out []int
	for i, w := range m {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				out = append(out, i*64+b)
			}
		}
	}
	return out
}

// startOn starts a process confined to one CPU, which it and every
// process it starts inherit: start is called on a thread locked and
// confined to cpu for the duration, since a new process takes the
// affinity of the thread that forks it. The thread's own set is
// restored afterwards.
func startOn(cpu int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := threadAffinity()
	if err != nil {
		return err
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setThreadAffinity(one); err != nil {
		return err
	}
	defer setThreadAffinity(old)
	return start()
}
