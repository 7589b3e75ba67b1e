package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a snapshot of the process-wide cost counters the benchmark
// turns into per-op figures. Deltas of two snapshots taken around a
// stretch of work give that stretch's wall time, CPU time, bytes allocated,
// GC cycles and GC CPU time.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU time of the process (getrusage)
	alloc uint64        // runtime.MemStats.TotalAlloc
	gcs   uint32        // runtime.MemStats.NumGC
	gcCPU float64       // /cpu/classes/gc/total:cpu-seconds
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(sample)
	u := usage{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = sample[0].Value.Float64()
	}
	return u
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost accumulates the deltas of usage snapshots over the timed stretches
// of a run, so untimed work between them (input cloning, correctness
// checks) stays out of the per-op figures.
type cost struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcCPU float64
}

// add charges the stretch between snapshots a and b (b taken later) to
// the accumulator as n ops.
func (c *cost) add(a, b usage, n int) {
	c.ops += n
	c.wall += b.wall.Sub(a.wall)
	c.cpu += b.cpu - a.cpu
	c.alloc += b.alloc - a.alloc
	c.gcCPU += b.gcCPU - a.gcCPU
}

// cpuMSPerOp is process CPU milliseconds per op.
func (c *cost) cpuMSPerOp() float64 {
	if c.ops == 0 {
		return 0
	}
	return c.cpu.Seconds() * 1000 / float64(c.ops)
}

// allocMBPerOp is bytes allocated per op, in MB (10^6 bytes).
func (c *cost) allocMBPerOp() float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.alloc) / 1e6 / float64(c.ops)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// readCPUTimes returns ok=false where /proc/stat is unavailable.
func readCPUTimes() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		// user nice system idle iowait irq softirq steal; guest time is
		// already counted in user and nice.
		for i, s := range fields[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, false
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, true
	}
	return cpuTimes{}, false
}

// stealShare is the fraction of all CPU ticks between a and b that the
// hypervisor gave to other guests; -1 when it cannot be measured.
func stealShare(a, b cpuTimes, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer make the percentile one or two lucky samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule (the ceil(q·n)-th smallest sample) and how many samples lie beyond
// that rank. xs is not modified; an empty xs gives NaN.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n - k
}

// tailPercentile is percentile with the ten-beyond rule applied: ok is
// false when fewer than minBeyond samples lie beyond the rank.
func tailPercentile(xs []float64, q float64) (value float64, ok bool) {
	v, beyond := percentile(xs, q)
	return v, beyond >= minBeyond
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
