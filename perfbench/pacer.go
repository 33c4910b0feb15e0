package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the generator at scheduled instants.
//
// time.Sleep cannot pace an open loop on this kind of host: the runtime's
// netpoller waits with millisecond granularity, so a 200 µs sleep overshoots
// by ~0.9 ms and would put that floor under every latency timed from its due
// instant. Spinning on runtime.Gosched has no floor but burns a core the
// daemon needs. A non-blocking timerfd read parks the generator in the
// netpoller, which the kernel wakes within ~10 µs of the deadline at the cost
// of two syscalls per wake-up.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) close() error { return p.f.Close() }

// waitUntil returns at or just after start+due.
func (p *pacer) waitUntil(start time.Time, due time.Duration) error {
	wait := due - time.Since(start)
	if wait <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(wait))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}
