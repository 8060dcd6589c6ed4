package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// heapSampleEvery is how often the meter samples the heap goal for
// peak_heap_mb. Reading runtime/metrics does not stop the world, so a
// short period costs little.
const heapSampleEvery = 5 * time.Millisecond

// window is how the meter slices a timed phase: throughput, CPU per
// compile and peak heap are reported as percentiles over windows, so a
// burst of interference from outside the process, or one collection
// that happens to land on the largest compiles in flight, moves the
// result less than it moves a whole-run figure.
const window = time.Second

// meter measures the process-wide cost of one timed phase: CPU time,
// allocations, GC CPU share, and per-window progress and peak heap.
type meter struct {
	cpu0     time.Duration
	mallocs0 uint64
	bytes0   uint64
	gc0      float64
	total0   float64

	mu        sync.Mutex
	peak      uint64 // highest heap goal of the phase
	windowTop uint64 // highest heap goal of the current window
	windows   []windowStat
	stop      chan struct{}
	wg        sync.WaitGroup
}

// windowStat is one full window's progress and peak heap goal.
type windowStat struct {
	dur  time.Duration
	cpu  time.Duration
	done int64
	peak uint64
}

// usage is what a meter measured.
type usage struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPUFrac  float64
	// peakHeap is the highest heap goal of the whole phase; windows
	// hold each window's own.
	peakHeap uint64
	windows  []windowStat
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func cpuClasses() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapGoal is the heap size the runtime lets the heap reach before the
// next collection: the heap's peak for the current live set.
func heapGoal() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startMeter collects garbage first, so every phase starts from the
// same live heap, then starts the samplers. done counts completed
// compiles.
func startMeter(done *atomic.Int64) *meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := heapGoal()
	m := &meter{mallocs0: ms.Mallocs, bytes0: ms.TotalAlloc, stop: make(chan struct{}), peak: h, windowTop: h}
	m.gc0, m.total0 = cpuClasses()
	m.cpu0 = processCPU()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		heap := time.NewTicker(heapSampleEvery)
		defer heap.Stop()
		win := time.NewTicker(window)
		defer win.Stop()
		last, lastCPU, lastDone := time.Now(), m.cpu0, done.Load()
		for {
			select {
			case <-m.stop:
				return
			case <-heap.C:
				m.observe()
			case now := <-win.C:
				cpu, n := processCPU(), done.Load()
				m.observe()
				m.mu.Lock()
				m.windows = append(m.windows, windowStat{dur: now.Sub(last), cpu: cpu - lastCPU, done: n - lastDone, peak: m.windowTop})
				m.windowTop = heapGoal() // the goal in force carries into the next window
				m.mu.Unlock()
				last, lastCPU, lastDone = now, cpu, n
			}
		}
	}()
	return m
}

func (m *meter) observe() {
	h := heapGoal()
	m.mu.Lock()
	m.peak = max(m.peak, h)
	m.windowTop = max(m.windowTop, h)
	m.mu.Unlock()
}

// end stops the sampler and returns the phase's usage.
func (m *meter) end() usage {
	cpu := processCPU() - m.cpu0
	gc, total := cpuClasses()
	m.observe()
	close(m.stop)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		cpu:        cpu,
		mallocs:    ms.Mallocs - m.mallocs0,
		allocBytes: ms.TotalAlloc - m.bytes0,
		peakHeap:   m.peak,
		windows:    m.windows,
	}
	if d := total - m.total0; d > 0 {
		u.gcCPUFrac = (gc - m.gc0) / d
	}
	return u
}
