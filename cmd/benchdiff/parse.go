package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the go test -json (test2json) event stream the
// parser needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchResult is one benchmark's parsed measurements. Allocs is only
// meaningful when HasAllocs is set: it requires a -benchmem run, and
// baselines recorded before -benchmem carry ns/op only.
type benchResult struct {
	NS        float64
	Allocs    float64
	HasAllocs bool
}

// benchResultRe matches one reassembled benchmark result line, e.g.
//
//	BenchmarkTable2Legalizers/fft_2/Ours-8   1   4577919 ns/op   0.31 illegal-%
//	BenchmarkMMSIMSteadyState-8   12345   98765 ns/op   0 B/op   0 allocs/op
//
// capturing the name (with the optional -GOMAXPROCS suffix still attached),
// the ns/op value, and the rest of the line for the metric scan.
var benchResultRe = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.e+]+) ns/op(.*)$`)

// allocsRe extracts the -benchmem allocations metric from the tail of a
// result line.
var allocsRe = regexp.MustCompile(`([0-9.e+]+) allocs/op`)

// gomaxprocsSuffixRe strips the trailing -N the benchmark runner appends when
// GOMAXPROCS > 1, so baselines recorded on different machines compare by
// benchmark identity.
var gomaxprocsSuffixRe = regexp.MustCompile(`-\d+$`)

// lastRows keeps each benchmark's last row: the baseline's rule, so rows
// appended to a baseline override earlier ones.
func lastRows(samples map[string][]benchResult) map[string]benchResult {
	out := make(map[string]benchResult, len(samples))
	for name, s := range samples {
		out[name] = s[len(s)-1]
	}
	return out
}

// summarize reduces each benchmark's samples from a -count N run to the
// values the gate compares: the median ns/op and the minimum allocs/op.
// Runtime work that lands inside a timed op (the scheduler starting a
// thread, a GC worker) only ever adds allocations, so the least count is
// the op's own; time varies both ways, so it takes the median.
func summarize(samples map[string][]benchResult) map[string]benchResult {
	out := make(map[string]benchResult, len(samples))
	for name, s := range samples {
		ns := make([]float64, len(s))
		var res benchResult
		for i, r := range s {
			ns[i] = r.NS
			if r.HasAllocs && (!res.HasAllocs || r.Allocs < res.Allocs) {
				res.Allocs, res.HasAllocs = r.Allocs, true
			}
		}
		sort.Float64s(ns)
		res.NS = (ns[(len(ns)-1)/2] + ns[len(ns)/2]) / 2
		out[name] = res
	}
	return out
}

// parseSamples reads a test2json stream and returns every result row's
// measurements, keyed by normalized benchmark name, in stream order.
// test2json splits a result line into separate events (the name fragment
// has no trailing newline), so output fragments are concatenated first and
// then split back into real lines.
func parseSamples(r io.Reader) (map[string][]benchResult, error) {
	var sb strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("benchdiff: malformed test2json line %q: %w", truncate(line, 80), err)
		}
		if ev.Action == "output" {
			sb.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string][]benchResult{}
	for _, line := range strings.Split(sb.String(), "\n") {
		m := benchResultRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		res := benchResult{NS: ns}
		if am := allocsRe.FindStringSubmatch(m[3]); am != nil {
			if allocs, err := strconv.ParseFloat(am[1], 64); err == nil {
				res.Allocs = allocs
				res.HasAllocs = true
			}
		}
		name := gomaxprocsSuffixRe.ReplaceAllString(m[1], "")
		out[name] = append(out[name], res)
	}
	return out, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
