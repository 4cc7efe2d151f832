package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tailGrid lists the percentiles a tail metric may report, highest first.
// A tail is the highest grid percentile that still has at least
// tailMinBeyond samples above it, so it never rests on a handful of
// outliers and its rank does not wander with small changes in the sample
// count.
var tailGrid = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

const tailMinBeyond = 10

// quantile returns the q-quantile of sorted by linear interpolation
// between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// latencies is a set of per-operation durations in seconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// p50 returns the median.
func (l latencies) p50() float64 { return quantile(l.sorted(), 0.5) }

// tail returns the tail percentile (as a fraction), its value, and the
// number of samples beyond it.
func (l latencies) tail() (q, v float64, beyond int) {
	s := l.sorted()
	for _, g := range tailGrid {
		b := int(math.Floor((1 - g) * float64(len(s))))
		if b >= tailMinBeyond || g == tailGrid[len(tailGrid)-1] {
			return g, quantile(s, g), b
		}
	}
	return 0, 0, 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuNow returns the CPU time the process has used, in user and system
// mode across all threads. Unlike wall time it leaves out the time the
// host runs other guests on this machine's CPUs.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// throughput accumulates ops and their CPU and wall time per round (an
// analysis pass, a campaign, a request pass).
type throughput struct {
	ops       int64
	cpu, wall time.Duration
	rates     []float64 // ops per CPU-second, one per round
	wallRates []float64 // ops per wall-second, one per round
}

func (t *throughput) round(ops int64, cpu, wall time.Duration) {
	t.ops += ops
	t.cpu += cpu
	t.wall += wall
	if cpu > 0 {
		t.rates = append(t.rates, float64(ops)/cpu.Seconds())
	}
	if wall > 0 {
		t.wallRates = append(t.wallRates, float64(ops)/wall.Seconds())
	}
}

// memSample is a point reading of the process allocation counters.
type memSample struct{ mallocs, bytes uint64 }

// readMem stops the world briefly; call it at phase boundaries or around
// single serial calls, never inside a timed region.
func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc}
}

// allocMeter sums allocation deltas over measured phases.
type allocMeter struct {
	start          memSample
	mallocs, bytes uint64
}

func (a *allocMeter) begin() { a.start = readMem() }

func (a *allocMeter) end() {
	m := readMem()
	a.mallocs += m.mallocs - a.start.mallocs
	a.bytes += m.bytes - a.start.bytes
}

// rssPeak samples the resident set size during the measured ops and keeps
// the maximum, so the peak leaves out set-up.
type rssPeak struct {
	stop chan struct{}
	done chan float64
}

const rssEvery = 10 * time.Millisecond

// startRSSPeak returns set-up's freed memory to the OS and starts
// sampling.
func startRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	p := &rssPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := rssMiB()
		for {
			select {
			case <-p.stop:
				p.done <- max(peak, rssMiB())
				return
			case <-t.C:
				peak = max(peak, rssMiB())
			}
		}
	}()
	return p
}

// end stops sampling and returns the peak in MiB.
func (p *rssPeak) end() float64 {
	close(p.stop)
	return <-p.done
}

// rssMiB reads the process's current resident set size.
func rssMiB() float64 { return procStatusMiB("VmRSS:") }

// procStatusMiB reads one kB-valued field of /proc/self/status in MiB.
func procStatusMiB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// callStat accumulates one layer call's timings and allocations.
type callStat struct {
	durs       latencies
	busy       time.Duration
	allocs     uint64
	allocCalls int64
}

// layerTracer records spans the benchmark wraps around its own calls into
// the program's layers. It is safe for concurrent use; serial callers use
// timeAllocs, which also attributes allocations to the call.
type layerTracer struct {
	mu    sync.Mutex
	calls map[string]*callStat
}

func newLayerTracer() *layerTracer {
	return &layerTracer{calls: make(map[string]*callStat)}
}

func (t *layerTracer) stat(name string) *callStat {
	s := t.calls[name]
	if s == nil {
		s = &callStat{}
		t.calls[name] = s
	}
	return s
}

// add records one call of duration d.
func (t *layerTracer) add(name string, d time.Duration) {
	t.mu.Lock()
	s := t.stat(name)
	s.durs = append(s.durs, d.Seconds())
	s.busy += d
	t.mu.Unlock()
}

// addAllocs attributes n allocations to one call of name.
func (t *layerTracer) addAllocs(name string, n uint64) {
	t.mu.Lock()
	s := t.stat(name)
	s.allocs += n
	s.allocCalls++
	t.mu.Unlock()
}

// timeAllocs runs fn as one call of name, timing it and attributing its
// allocations. Only for calls made while no other goroutine allocates.
func (t *layerTracer) timeAllocs(name string, fn func()) time.Duration {
	m0 := readMem()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	m1 := readMem()
	t.add(name, d)
	t.addAllocs(name, m1.mallocs-m0.mallocs)
	return d
}

// busy returns the total time spent in name.
func (t *layerTracer) busy(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.calls[name]; s != nil {
		return s.busy
	}
	return 0
}
