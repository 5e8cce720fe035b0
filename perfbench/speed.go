package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's own speed drifts. On a shared machine the same seeded run
// went a fifth to a quarter faster or slower from one minute to the next,
// in CPU time as well as in wall time, and in phases of seconds within a
// run: neighbours compete for the cores' caches and execution units. The
// speed probe measures that drift beside the workload. It runs a fixed
// reference kernel, the benchmark's own code and none of the program's,
// in short bursts on one locked thread, and times each burst by that
// thread's CPU clock, so that neither the scheduler nor the hypervisor's
// stolen time enters its figure.

const (
	refN = 4096       // reference array length
	refQ = 1073479681 // a prime below 2^30; the kernel multiplies mod refQ
	// probeBurst is how many kernel rounds one burst runs (under a
	// millisecond); probeGap is the pause after each burst, which keeps
	// the probe to a few percent of one processor.
	probeBurst = 8
	probeGap   = 10 * time.Millisecond
)

// refKernel runs one round of the reference kernel over a: every stage of
// a radix-2 butterfly network with multiplications mod refQ, the shape of
// the work the workloads do most.
func refKernel(a *[refN]uint32) {
	w := uint64(3)
	for half := refN / 2; half >= 1; half /= 2 {
		for start := 0; start < refN; start += 2 * half {
			for j := start; j < start+half; j++ {
				u := uint64(a[j])
				v := uint64(a[j+half]) * w % refQ
				a[j] = uint32((u + v) % refQ)
				a[j+half] = uint32((u + refQ - v) % refQ)
			}
		}
		w = w * w % refQ
	}
}

// speedProbe keeps, per sub-window, the reference kernel rounds run and
// the probe thread's CPU seconds spent on them.
type speedProbe struct {
	rounds []float64
	cpu    []float64
	state  [refN]uint32
}

func newSpeedProbe(nwin int) *speedProbe {
	p := &speedProbe{rounds: make([]float64, nwin), cpu: make([]float64, nwin)}
	for i := range p.state {
		p.state[i] = uint32(i)
	}
	return p
}

// run bursts the kernel until stop is set, charging each burst to the
// sub-window that window maps its end to.
func (p *speedProbe) run(window func(time.Time) int, stop *atomic.Bool) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for !stop.Load() {
		c0 := threadCPUSeconds()
		for i := 0; i < probeBurst; i++ {
			refKernel(&p.state)
		}
		c1 := threadCPUSeconds()
		if w := window(time.Now()); w >= 0 {
			p.rounds[w] += probeBurst
			p.cpu[w] += c1 - c0
		}
		time.Sleep(probeGap)
	}
}

// speeds returns the host speed of each sub-window in kernel rounds per
// CPU second, NaN for a sub-window no burst ended in.
func (p *speedProbe) speeds() []float64 {
	s := make([]float64, len(p.rounds))
	for w := range s {
		s[w] = ratio(p.rounds[w], p.cpu[w])
	}
	return s
}

// threadCPUSeconds is the CPU time the calling OS thread has used.
func threadCPUSeconds() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
