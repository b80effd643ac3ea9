package main

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The calibration row: a fixed 1024-bit modular exponentiation with
// math/big alone, so no change to the repository moves it. It is timed
// every calibEvery throughout a run, in the thread CPU time of a
// dedicated thread, which counts neither waiting for a CPU the
// workload holds nor time the hypervisor gives to other guests; the
// median says how fast the host ran while the run was measured.
const calibEvery = 200 * time.Millisecond

// calibrationInputs derives the calibration's fixed operands.
func calibrationInputs() (base, exp, mod *big.Int) {
	word := func(tag string) *big.Int {
		var buf []byte
		for i := 0; len(buf) < 128; i++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("rankbench-calibration-%s-%d", tag, i)))
			buf = append(buf, sum[:]...)
		}
		return new(big.Int).SetBytes(buf[:128])
	}
	base, exp, mod = word("base"), word("exp"), word("mod")
	mod.SetBit(mod, 0, 1) // odd modulus, as in every DL group
	return base, exp, mod
}

// threadCPU reads the calling OS thread's CPU time.
func threadCPU() (time.Duration, bool) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}

// calibSampler times the calibration Exp in the background.
type calibSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // µs per Exp
}

func startCalibration() *calibSampler {
	c := &calibSampler{stop: make(chan struct{}), done: make(chan struct{})}
	base, exp, mod := calibrationInputs()
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var sink big.Int
		t := time.NewTicker(calibEvery)
		defer t.Stop()
		for {
			start, ok1 := threadCPU()
			sink.Exp(base, exp, mod)
			end, ok2 := threadCPU()
			if ok1 && ok2 {
				c.samples = append(c.samples, float64(end-start)/float64(time.Microsecond))
			}
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// finish stops the sampler and returns the median µs per Exp.
func (c *calibSampler) finish() float64 {
	close(c.stop)
	<-c.done
	return median(c.samples)
}
