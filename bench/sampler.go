package main

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark was recorded on slows down in bursts of a
// second or two — identical in-process work takes up to 1.6x its usual
// time, with no steal time reported — so one window's records ÷ wall
// time moves by several percent from run to run on the same commit. The
// sampler cuts the window into slices of sliceEvery and the workload
// reports the median slice, which a burst in fewer than half the slices
// does not move.

const sliceEvery = 250 * time.Millisecond

// mark is the running totals at one instant of a measured window.
type mark struct {
	at    time.Duration // since the window began
	ops   int64         // records completed OK
	cpuNs int64         // CPU consumed by the process serving them
}

// sampler takes a mark every sliceEvery while loaders count completions
// into ops.
type sampler struct {
	ops   atomic.Int64
	cpuNs func() (int64, error)
	begin time.Time
	marks []mark
	err   error
	stop  chan struct{}
	done  chan struct{}
}

func startSampler(cpuNs func() (int64, error)) *sampler {
	s := &sampler{cpuNs: cpuNs, begin: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	s.mark()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sliceEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.mark()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *sampler) mark() {
	cpu, err := s.cpuNs()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.marks = append(s.marks, mark{at: time.Since(s.begin), ops: s.ops.Load(), cpuNs: cpu})
}

// finish stops sampling, closes the last slice at the current instant
// and returns every mark.
func (s *sampler) finish() ([]mark, error) {
	close(s.stop)
	<-s.done
	s.mark()
	return s.marks, s.err
}

// sliceMedians reports the median slice of a window: records per second
// and CPU microseconds per record. Only slices that end at or before
// upTo completed records count (0 = all), so a run over a prefix of the
// records can be compared with the same prefix of a full run. The
// closing slice is kept only when it is at least half as long as the
// others, or when it is the only one.
func sliceMedians(marks []mark, upTo int64) (opsPerS, cpuUsPerOp float64, slices int) {
	var rates, cpus []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		if upTo > 0 && b.ops > upTo {
			break
		}
		dt, dops := b.at-a.at, b.ops-a.ops
		if dops == 0 || dt <= 0 {
			continue
		}
		if i == len(marks)-1 && len(rates) > 0 && dt < sliceEvery/2 {
			continue
		}
		rates = append(rates, float64(dops)/dt.Seconds())
		cpus = append(cpus, float64(b.cpuNs-a.cpuNs)/1e3/float64(dops))
	}
	return median(rates), median(cpus), len(rates)
}

// tailParts is into how many equal runs of consecutive completions one
// connection's latency samples are cut for the tail percentile; each
// part keeps at least tailMinSamples samples.
const (
	tailParts      = 16
	tailMinSamples = 1000
)

// sliceTails returns the 99th percentile of each part of the samples,
// taken in completion order. The workload reports the median part.
func sliceTails(latNs []int64) []float64 {
	parts := min(tailParts, len(latNs)/tailMinSamples)
	if parts < 1 {
		parts = 1
	}
	tails := make([]float64, 0, parts)
	for i := 0; i < parts; i++ {
		part := latNs[i*len(latNs)/parts : (i+1)*len(latNs)/parts]
		tails = append(tails, float64(percentile(part, 99)))
	}
	return tails
}

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	cpuClockSched       = 2 // CPUCLOCK_SCHED: the scheduler's nanosecond accounting
)

// processCPUNs reads a process's CPU clock: user plus system time of all
// its threads in nanoseconds, exact where /proc/<pid>/stat counts 10 ms
// ticks. pid 0 is the calling process.
func processCPUNs(pid int) (int64, error) {
	clock := int32(clockProcessCPUTime)
	if pid != 0 {
		clock = ^int32(pid)<<3 | cpuClockSched // the kernel's MAKE_PROCESS_CPUCLOCK
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(uint32(clock)), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(cpu clock of pid %d): %w", pid, errno)
	}
	return ts.Nano(), nil
}
