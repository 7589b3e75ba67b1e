package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort a copy
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		tailOK bool
	}{
		{n: 100, q: 0.9, want: 90, beyond: 10, tailOK: true},
		{n: 99, q: 0.9, want: 90, beyond: 9, tailOK: false},
		{n: 200, q: 0.9, want: 180, beyond: 20, tailOK: true},
		{n: 10, q: 0.5, want: 5, beyond: 5, tailOK: false},
		{n: 1, q: 0.9, want: 1, beyond: 0, tailOK: false},
	} {
		xs := seq(tc.n)
		v, beyond := percentile(xs, tc.q)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("n=%d q=%g: got %g with %d beyond, want %g with %d", tc.n, tc.q, v, beyond, tc.want, tc.beyond)
		}
		if _, ok := tailPercentile(xs, tc.q); ok != tc.tailOK {
			t.Errorf("n=%d q=%g: tail reported=%v, want %v", tc.n, tc.q, ok, tc.tailOK)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: percentile reordered its input", tc.n)
		}
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("empty input: got %g, %d", v, beyond)
	}
}

func TestNoteLatencyStatesSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantTail bool
	}{{99, false}, {100, true}} {
		lat := make([]float64, tc.n)
		for i := range lat {
			lat[i] = float64(i)
		}
		r := newReport()
		noteLatency(r, lat)
		if len(r.lines) != 2 {
			t.Fatalf("n=%d: %d lines, want p50 and p90", tc.n, len(r.lines))
		}
		for _, line := range r.lines {
			if !strings.Contains(line, "(n="+strconv.Itoa(tc.n)) {
				t.Errorf("n=%d: line %q does not state the sample count", tc.n, line)
			}
		}
		if got := !strings.Contains(r.lines[1], "n/a"); got != tc.wantTail {
			t.Errorf("n=%d: p90 reported=%v, want %v (%q)", tc.n, got, tc.wantTail, r.lines[1])
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: got %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %g", got)
	}
	if got := median([]float64{1, 2, math.Inf(1)}); got != 2 {
		t.Errorf("a failed op's infinite latency must not move a median it does not reach: got %g", got)
	}
}

func TestCostPerOp(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := usage{wall: t0, cpu: 1 * time.Second, alloc: 1e6, gcs: 2, gcCPU: 0.5}
	b := usage{wall: t0.Add(2 * time.Second), cpu: 3 * time.Second, alloc: 5e6, gcs: 5, gcCPU: 0.75}
	var c cost
	c.add(a, b, 4)
	if got := c.cpuMSPerOp(); got != 500 {
		t.Errorf("cpu per op: got %g ms, want 500", got)
	}
	if got := c.allocMBPerOp(); got != 1 {
		t.Errorf("alloc per op: got %g MB, want 1", got)
	}
	// A second stretch adds to the first; untimed work between them does
	// not count.
	c.add(usage{wall: t0.Add(10 * time.Second), cpu: 10 * time.Second, alloc: 9e6},
		usage{wall: t0.Add(11 * time.Second), cpu: 11 * time.Second, alloc: 10e6}, 1)
	if c.ops != 5 || c.wall != 3*time.Second || c.cpu != 3*time.Second || c.alloc != 5e6 {
		t.Errorf("accumulated %+v", c)
	}
	if c.gcCPU != 0.25 {
		t.Errorf("gc cpu delta: %g s", c.gcCPU)
	}
	var empty cost
	if empty.cpuMSPerOp() != 0 || empty.allocMBPerOp() != 0 {
		t.Error("no ops must give 0, not NaN")
	}
}

var sink [][]byte

func TestReadUsageSeesWork(t *testing.T) {
	a := readUsage()
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 100<<10))
	}
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	b := readUsage()
	sink = nil
	var c cost
	c.add(a, b, 1)
	if c.alloc < 10e6 {
		t.Errorf("allocated 10 MB, counted %d bytes", c.alloc)
	}
	if c.cpu <= 0 || c.wall < 20*time.Millisecond {
		t.Errorf("busy 20ms, counted cpu %v wall %v", c.cpu, c.wall)
	}
}

func TestStealShare(t *testing.T) {
	a := cpuTimes{total: 1000, steal: 10}
	b := cpuTimes{total: 2000, steal: 110}
	if got := stealShare(a, b, true, true); got != 0.1 {
		t.Errorf("got %g, want 0.1", got)
	}
	if got := stealShare(a, b, false, true); got != -1 {
		t.Errorf("unreadable /proc/stat: got %g, want -1", got)
	}
	if got := stealShare(b, a, true, true); got != -1 {
		t.Errorf("no ticks elapsed: got %g, want -1", got)
	}
}

func TestRepeatSetupReportsMedian(t *testing.T) {
	sleeps := []time.Duration{60 * time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond}
	calls, released := 0, []int{}
	st, secs, err := repeatSetup(func() (int, error) {
		time.Sleep(sleeps[calls])
		calls++
		return calls, nil
	}, func(s int) { released = append(released, s) })
	if err != nil {
		t.Fatal(err)
	}
	if st != setupRepeats || calls != setupRepeats {
		t.Errorf("kept state %d after %d calls, want the last of %d", st, calls, setupRepeats)
	}
	if len(released) != setupRepeats-1 || released[0] != 1 || released[1] != 2 {
		t.Errorf("released %v, want every earlier state", released)
	}
	if secs < 0.025 || secs >= 0.060 {
		t.Errorf("median set-up %gs, want the middle sleep (25ms)", secs)
	}
}

func TestMixIsDeterministic(t *testing.T) {
	if mix(7, 3) != mix(7, 3) {
		t.Error("same seed and input gave different seeds")
	}
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		for k := -2; k < 50; k++ {
			v := mix(seed, k)
			if v < 0 || seen[v] {
				t.Fatalf("mix(%d, %d) = %d repeats or is negative", seed, k, v)
			}
			seen[v] = true
		}
	}
}
