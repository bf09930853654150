package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// speedProbe measures how fast the core is while the benchmark runs, so
// that CPU times can be reported at a fixed reference speed. On a shared
// host the same work takes a varying amount of CPU time: a busy neighbour
// on the sibling hyperthread or in the shared caches slows the core by
// tens of percent for seconds at a time. Every probePeriod the probe runs
// refKernel, a fixed piece of work that uses nothing from qtrtest, on a
// thread of its own and reads that thread's CPU clock. A change to the
// program cannot change the kernel's cost; only the core's speed can.
//
// A time t measured while the kernel took k on average is reported as
// t × (refKernelNominal / k)^speedExponent: the CPU time the same work
// would take on a core where the kernel takes refKernelNominal.
type speedProbe struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples atomic.Int64
	kernel  atomic.Int64 // thread CPU nanoseconds spent in refKernel
}

const (
	// probePeriod is the wall time between two kernel runs. A run takes
	// about 1 ms, so the probe takes about 2% of a core.
	probePeriod = 40 * time.Millisecond
	// refKernelNominal defines the reference core. It is about what one
	// refKernel call takes on a 2-CPU cloud VM, so reference seconds come
	// out close to CPU seconds there.
	refKernelNominal = time.Millisecond
	// probeWarmup kernel runs at start-up, so the first campaign has
	// samples to be scaled by even if it ends before the first tick.
	probeWarmup = 8
	// speedExponent is how much more the campaigns' CPU time moves than
	// the kernel's when the host changes. Measured on a 2-CPU cloud VM from
	// one set of ten runs to the next: suite-pairs' CPU time fell by 30%
	// while the kernel's fell by 15%, an exponent of about 2; fuzz-eet's
	// two sets agreed best at about 1.25 (README.md, "Reference seconds").
	speedExponent = 1.5
)

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{})}
	started := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		// A thread of its own, so its CPU clock counts only the kernel.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		refKernel() // builds the buffers and warms them into the caches
		for i := 0; i < probeWarmup; i++ {
			p.sample()
		}
		close(started)
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	<-started
	return p
}

func (p *speedProbe) sample() {
	c := threadCPU()
	refKernel()
	p.kernel.Add(int64(threadCPU() - c))
	p.samples.Add(1)
}

func (p *speedProbe) end() {
	close(p.stop)
	p.wg.Wait()
}

// cpu is the process's CPU time less the probe's own.
func (p *speedProbe) cpu() time.Duration {
	return readUsage().cpu - time.Duration(p.kernel.Load())
}

// probeMark is a point in the probe's sample stream.
type probeMark struct {
	samples int64
	kernel  time.Duration
}

func (p *speedProbe) mark() probeMark {
	return probeMark{p.samples.Load(), time.Duration(p.kernel.Load())}
}

// since returns the kernel's mean time since m. If no sample was taken
// since m, it uses every sample so far.
func (p *speedProbe) since(m probeMark) time.Duration {
	now := p.mark()
	if now.samples == m.samples {
		m = probeMark{}
	}
	return (now.kernel - m.kernel) / time.Duration(now.samples-m.samples)
}

// refScale is the factor that scales CPU time measured while the kernel
// took k on average to reference seconds.
func refScale(k time.Duration) float64 {
	return math.Pow(float64(refKernelNominal)/float64(k), speedExponent)
}

// allowedCPUs lists the CPUs the process may run on: one when run.sh
// pinned it.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < 64*int(n/8); i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// refKernel's two buffers: a random cycle of 256 KiB, about a core's L2,
// and 32 MiB to stream through, more than a shared L3. They are mapped
// outside the Go heap, so peak_rss_mb does not count them.
const (
	chaseWords  = 1 << 15
	streamWords = 1 << 22
	streamSlice = 1 << 17 // 1 MiB streamed per call
)

var (
	kernelOnce sync.Once
	chaseBuf   []uint64
	streamBuf  []uint64
	streamAt   int
	kernelSink uint64
)

// refKernel is a fixed amount of work with two parts: dependent loads and
// integer mixing along a random cycle that stays in the core's own cache,
// and a sequential read of the next 1 MiB of a buffer no cache holds. The
// first part slows down with the core, the second with the memory system
// it shares; measured side by side with allocation-heavy Go code on a
// 2-CPU cloud box, the mix tracked that code's speed better than either
// part alone. Only the probe goroutine calls it.
func refKernel() {
	kernelOnce.Do(func() {
		chaseBuf = mapWords(chaseWords)
		streamBuf = mapWords(streamWords)
		for i := range streamBuf {
			streamBuf[i] = uint64(i)
		}
		// Sattolo's shuffle makes one cycle through every slot.
		for i := range chaseBuf {
			chaseBuf[i] = uint64(i)
		}
		rng := uint64(0x9e3779b97f4a7c15)
		for i := len(chaseBuf) - 1; i > 0; i-- {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			j := int(rng % uint64(i))
			chaseBuf[i], chaseBuf[j] = chaseBuf[j], chaseBuf[i]
		}
	})
	var h, at uint64
	for i := 0; i < 2*chaseWords; i++ {
		at = chaseBuf[at]
		h = (h^at)*0x100000001b3 + uint64(i)
		h ^= h >> 29
	}
	for _, v := range streamBuf[streamAt : streamAt+streamSlice] {
		h += v
	}
	streamAt = (streamAt + streamSlice) % streamWords
	kernelSink += h
}

// mapWords maps n zeroed words of anonymous memory.
func mapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err) // 33 MiB of address space
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}
