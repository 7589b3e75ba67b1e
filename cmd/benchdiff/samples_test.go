package main

import (
	"fmt"
	"strings"
	"testing"
)

// rows renders one test2json output event per allocs/op value, all for
// BenchmarkX, as a -count N run prints them.
func rows(allocs ...int) string {
	var sb strings.Builder
	for i, a := range allocs {
		fmt.Fprintf(&sb, `{"Action":"output","Output":"BenchmarkX-2 \t 1\t %d ns/op\t 96 B/op\t %d allocs/op\n"}`+"\n", 1000*(i+1), a)
	}
	return sb.String()
}

// TestSamplesGateMinAllocs pins the gate on a -count N run: allocs/op is the
// least of the current samples, ns/op their median, and a baseline that
// lists a benchmark twice uses its last row.
func TestSamplesGateMinAllocs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		baseline, cur  string
		regressed      int
		wantNS, wantAl float64
	}{
		{"one sample off by runtime work passes", rows(12), rows(12, 18, 12), 0, 2000, 12},
		{"every sample over fails", rows(12), rows(18, 18, 18), 1, 2000, 18},
		{"baseline uses its last row", rows(18, 12), rows(18, 14, 18), 1, 2000, 14},
		{"appended baseline row overrides", rows(12, 18), rows(18, 18, 18), 0, 2000, 18},
		{"even count takes the middle pair's mean", rows(12), rows(12, 12, 12, 12), 0, 2500, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := parseBench(strings.NewReader(tc.baseline))
			if err != nil {
				t.Fatal(err)
			}
			samples, err := parseSamples(strings.NewReader(tc.cur))
			if err != nil {
				t.Fatal(err)
			}
			cur := summarize(samples)
			if got := cur["BenchmarkX"]; got.NS != tc.wantNS || got.Allocs != tc.wantAl || !got.HasAllocs {
				t.Errorf("summary = %+v, want %g ns/op, %g allocs/op", got, tc.wantNS, tc.wantAl)
			}
			var out strings.Builder
			if sum := compare(base, cur, 0.25, 0.10, gateSpec{allocs: true}, &out); sum.Regressed != tc.regressed {
				t.Errorf("Regressed = %d, want %d\n%s", sum.Regressed, tc.regressed, out.String())
			}
		})
	}
}
