// Command benchdiff compares a go test -bench -json run against a committed
// baseline and fails when any gated metric regressed beyond its threshold.
//
//	go test -run '^$' -bench=. -benchtime=1x -benchmem -json . > /tmp/bench.json
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current /tmp/bench.json
//
// Two metrics are tracked: ns/op (always present) and allocs/op (present in
// -benchmem runs). -gate selects which of them fail the run; the other is
// report-only, as is any metric present on only one side — an ns-only
// baseline never fails an allocs comparison until it is regenerated with
// -benchmem.
//
// A benchmark may appear several times in either input. In the baseline its
// last row counts, so appended rows override older ones. In the current run
// (-count N) the gate compares the median ns/op and the minimum allocs/op of
// its samples: work the runtime does inside a timed op only ever adds
// allocations, so the least count is the op's own.
//
// The exit status is 1 on regression (unless -advisory), 2 on usage or
// parse errors. Benchmarks present only in one input are reported but never
// fail the run: new benchmarks are expected to appear, and renamed ones
// should update the baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline test2json file")
		currentPath  = flag.String("current", "-", "test2json stream to check ('-' = stdin)")
		threshold    = flag.Float64("threshold", 0.25, "fail when ns/op grows more than this fraction over baseline")
		allocThresh  = flag.Float64("alloc-threshold", 0.10, "fail when allocs/op grows more than this fraction over baseline (0 allocs baseline fails on any allocation)")
		gateFlag     = flag.String("gate", "ns", "which metrics fail the run: ns, allocs, or both (ungated metrics are report-only)")
		advisory     = flag.Bool("advisory", false, "report regressions but always exit 0 (for noisy shared runners)")
	)
	flag.Parse()

	gate, err := parseGate(*gateFlag)
	if err != nil {
		fatal(err)
	}
	baseSamples, err := parseFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	curSamples, err := parseFile(*currentPath)
	if err != nil {
		fatal(err)
	}
	baseline, current := lastRows(baseSamples), summarize(curSamples)
	if len(baseline) == 0 {
		fatal(fmt.Errorf("benchdiff: no benchmark results in baseline %s", *baselinePath))
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("benchdiff: no benchmark results in current input"))
	}

	sum := compare(baseline, current, *threshold, *allocThresh, gate, os.Stdout)
	if sum.Regressed > 0 {
		fmt.Printf("benchdiff: %d benchmark metric(s) regressed beyond threshold\n", sum.Regressed)
		if !*advisory {
			os.Exit(1)
		}
		fmt.Println("benchdiff: advisory mode, not failing")
	}
}

func parseFile(path string) (map[string][]benchResult, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return parseSamples(r)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
