package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The reference host is a shared two-vCPU virtual machine whose speed
// swings: in phases of about a second the same S-SLIC frame takes up to
// 1.8 times as long, the phases differ between the two vCPUs, and their
// share changes from minute to minute, so raw times of identical runs
// spread by a quarter. The phases slow throughput-bound code such as
// S-SLIC's pixel sweeps; a latency-bound loop on the same CPU does not
// notice them.
//
// So the benchmark pins itself to one CPU, and before every frame and
// every set-up it times a fixed reference kernel on that CPU: one
// 9-candidate distance+argmin sweep over a 320×240 int32 image, the shape
// of S-SLIC's assign phase, written here and sharing no code with the
// program. Every time the end-to-end report gives is scaled by
// refNominal over the kernel time measured next to it, so it reads in
// milliseconds at the speed at which the kernel takes refNominal.

// refNominal is the reference speed: about the kernel's uncontended time
// on the reference host.
const refNominal = 1800 * time.Microsecond

const (
	refW, refH = 320, 240
	// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
	clockThreadCPU = 3
)

// speed runs the reference kernel. factor may be called from one
// goroutine at a time; kernelCPU from any.
type speed struct {
	planes []int32 // three refW×refH planes
	labels []int32
	cpu    atomic.Int64 // nanoseconds of CPU the kernel has used
}

func newSpeed() (*speed, error) {
	if _, err := threadCPU(); err != nil {
		return nil, fmt.Errorf("thread CPU clock: %w", err)
	}
	s := &speed{planes: make([]int32, 3*refW*refH), labels: make([]int32, refW*refH)}
	for i := range s.planes {
		s.planes[i] = int32(uint32(i)*2654435761>>7) & 255
	}
	return s, nil
}

// factor runs the kernel once and returns refNominal over its CPU time:
// multiplied by a time measured now, it gives that time at the
// reference speed. The kernel runs on a locked OS thread and is timed on
// that thread's CPU clock, so other goroutines sharing the CPU do not
// lengthen it.
func (s *speed) factor() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, _ := threadCPU() // newSpeed checked the clock
	s.sweep()
	t1, _ := threadCPU()
	d := t1 - t0
	if d <= 0 {
		return 1
	}
	s.cpu.Add(int64(d))
	return float64(refNominal) / float64(d)
}

// kernelCPU is the CPU time the kernel has used so far.
func (s *speed) kernelCPU() time.Duration { return time.Duration(s.cpu.Load()) }

// sweep labels every pixel with the nearest of nine fixed centres in
// (L, a, b, x, y), the way S-SLIC's assign phase does.
func (s *speed) sweep() {
	var centres [9][5]int32
	for c := range centres {
		centres[c] = [5]int32{int32(c * 25), int32(c * 13), int32(c * 7), int32(c%3) * 100, int32(c/3) * 80}
	}
	n := refW * refH
	for y := 0; y < refH; y++ {
		for x := 0; x < refW; x++ {
			i := y*refW + x
			l, a, b := s.planes[i], s.planes[n+i], s.planes[2*n+i]
			best, label := int32(1<<30), int32(0)
			for c := range centres {
				dl, da, db := l-centres[c][0], a-centres[c][1], b-centres[c][2]
				dx, dy := int32(x)-centres[c][3], int32(y)-centres[c][4]
				if d := dl*dl + da*da + db*db + (dx*dx+dy*dy)>>4; d < best {
					best, label = d, int32(c)
				}
			}
			s.labels[i] = label
		}
	}
}

func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// pinEnv names the CPU a re-executed benchmark is bound to.
const pinEnv = "PERFBENCH_CPU"

// pinToOneCPU re-executes the benchmark bound to the lowest CPU it may
// run on, so that the program and the reference kernel share one CPU's
// speed; the runtime then sizes GOMAXPROCS to that one CPU. It returns
// nil without doing anything in a process that is already pinned, and
// otherwise returns only on failure.
func pinToOneCPU() error {
	if os.Getenv(pinEnv) != "" {
		return nil
	}
	// The mask is set on this thread, and exec passes it on.
	runtime.LockOSThread()
	var mask [16]uint64
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i, word := range mask {
		if word != 0 {
			cpu = 64*i + bits.TrailingZeros64(word)
			break
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinEnv+"="+strconv.Itoa(cpu)))
}
