package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process's own costs:
// CPU time and page faults from getrusage, allocation and GC counters
// from the Go runtime, and the scheduler-latency histogram.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user + system
	minflt     int64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	sched      *metrics.Float64Histogram
}

const schedMetric = "/sched/latencies:seconds"

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sm := []metrics.Sample{{Name: schedMetric}}
	metrics.Read(sm)
	var h *metrics.Float64Histogram
	if sm[0].Value.Kind() == metrics.KindFloat64Histogram {
		h = sm[0].Value.Float64Histogram()
	}
	return procSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		minflt:     ru.Minflt,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		sched:      h,
	}
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	wall, cpu    time.Duration
	minflt       int64
	allocBytes   uint64
	gcCycles     uint32
	gcPause      time.Duration
	schedP99     time.Duration // bucket upper bound, from the runtime's histogram
	schedSamples uint64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		minflt:     b.minflt - a.minflt,
		allocBytes: b.totalAlloc - a.totalAlloc,
		gcCycles:   b.numGC - a.numGC,
		gcPause:    time.Duration(b.pauseNs - a.pauseNs),
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		counts := make([]uint64, len(b.sched.Counts))
		for i := range counts {
			counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
			d.schedSamples += counts[i]
		}
		if d.schedSamples > 0 {
			rank := uint64(math.Ceil(0.99 * float64(d.schedSamples)))
			var cum uint64
			for i, c := range counts {
				cum += c
				if cum >= rank {
					// Counts[i] covers [Buckets[i], Buckets[i+1]).
					ub := b.sched.Buckets[i+1]
					if math.IsInf(ub, 1) {
						ub = b.sched.Buckets[i]
					}
					d.schedP99 = time.Duration(ub * 1e9)
					break
				}
			}
		}
	}
	return d
}

// rssMiB reads the resident set size from /proc/self/statm.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat:
// the total and the steal column (time a virtual CPU was ready to run
// while the host ran something else). Zeroes when the file is missing.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// liveHeapMiB is the Go heap in use right after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// calibWords sizes the calibration kernel's table: 256 KiB, larger
// than L1 and well inside L2 on current server cores.
const calibWords = 1 << 15

var calibTable [calibWords]uint64

// calibKernel is a fixed CPU and cache workload that belongs to the
// benchmark, not to the program under test: 2^22 xorshift steps, each
// a dependent read-modify-write of a pseudo-random table word. Its
// time drifts only with the box (frequency, co-tenants, cache
// pressure), so a reader can tell box noise from a program change.
// The returned checksum is fixed; a different value means the kernel
// itself misbehaved.
func calibKernel() uint64 {
	for i := range calibTable {
		calibTable[i] = uint64(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	var sum uint64
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibWords - 1)
		calibTable[j] += x
		sum += calibTable[(j*7)&(calibWords-1)]
	}
	return sum
}

// calibrate runs the kernel back to back for about window and returns
// each call's duration. The first call's checksum is the reference for
// the others.
func calibrate(window time.Duration) ([]time.Duration, error) {
	var out []time.Duration
	var want uint64
	for start := time.Now(); len(out) < 3 || time.Since(start) < window; {
		t0 := time.Now()
		got := calibKernel()
		out = append(out, time.Since(t0))
		if len(out) == 1 {
			want = got
		} else if got != want {
			return nil, fmt.Errorf("calibration kernel checksum %#x, want %#x", got, want)
		}
	}
	return out, nil
}

func medianDur(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// workQ is the quantile of a repeated, fixed piece of work's times
// that the offline timing metrics and the serve workloads' capture and
// replay probes report: the time nine repetitions in ten beat. On the
// shared machine the benchmark was built on, neighbours slow
// memory-bound code by up to 40% in stretches of seconds to minutes.
// Nearly every run holds some of the slow state, and some runs hold
// stretches of the fast one, in shares that change from run to run. A
// median of such a mix jumps between the two states; the 90th
// percentile stays inside the slow one, which every run contains. A
// change to the program moves both states. README.md has the figures.
const workQ = 0.9

// workTime returns the workQ quantile of d (nearest rank) and the
// index in d of the repetition that took it.
func workTime(d []time.Duration) (time.Duration, int) {
	if len(d) == 0 {
		return 0, -1
	}
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	r := int(math.Ceil(workQ * float64(len(d))))
	if r < 1 {
		r = 1
	}
	return d[idx[r-1]], idx[r-1]
}

// quantile is the exact nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}
