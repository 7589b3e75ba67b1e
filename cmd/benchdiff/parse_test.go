package main

import (
	"io"
	"strings"
	"testing"
)

// stream mimics test2json's habit of splitting one benchmark result line into
// a name fragment (no newline) and a measurement fragment.
const stream = `{"Action":"run","Test":"BenchmarkFoo"}
{"Action":"output","Test":"BenchmarkFoo","Output":"BenchmarkFoo\n"}
{"Action":"output","Test":"BenchmarkFoo","Output":"BenchmarkFoo-8         \t"}
{"Action":"output","Test":"BenchmarkFoo","Output":"       1\t 161138784 ns/op\t         1.332 illegal-%\n"}
{"Action":"output","Test":"BenchmarkBar/case_1","Output":"BenchmarkBar/case_1    \t       2\t   4577919 ns/op\n"}
{"Action":"output","Output":"PASS\n"}
{"Action":"pass"}
`

// parseBench reads a stream as benchdiff reads a baseline: each
// benchmark's last row.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	samples, err := parseSamples(r)
	if err != nil {
		return nil, err
	}
	return lastRows(samples), nil
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFoo":        161138784,
		"BenchmarkBar/case_1": 4577919,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results (%v), want %d", len(got), got, len(want))
	}
	for name, ns := range want {
		if got[name].NS != ns {
			t.Errorf("%s = %g, want %g", name, got[name].NS, ns)
		}
		if got[name].HasAllocs {
			t.Errorf("%s: HasAllocs without -benchmem output", name)
		}
	}
}

func TestParseBenchStripsGomaxprocsSuffix(t *testing.T) {
	got, err := parseBench(strings.NewReader(
		`{"Action":"output","Output":"BenchmarkX/sub-16 \t 1\t 1000 ns/op\n"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX/sub"].NS != 1000 {
		t.Fatalf("suffix not stripped: %v", got)
	}
}

// TestParseBenchAllocs pins the -benchmem extension: the allocs/op column is
// captured when present (B/op is skipped), including an exact zero.
func TestParseBenchAllocs(t *testing.T) {
	got, err := parseBench(strings.NewReader(
		`{"Action":"output","Output":"BenchmarkMem-8 \t 100\t 5000 ns/op\t 1024 B/op\t 17 allocs/op\n"}` + "\n" +
			`{"Action":"output","Output":"BenchmarkZero-8 \t 100\t 900 ns/op\t 0 B/op\t 0 allocs/op\n"}` + "\n" +
			`{"Action":"output","Output":"BenchmarkPlain-8 \t 100\t 800 ns/op\n"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	mem := got["BenchmarkMem"]
	if !mem.HasAllocs || mem.Allocs != 17 || mem.NS != 5000 {
		t.Errorf("BenchmarkMem = %+v, want 5000 ns/op, 17 allocs/op", mem)
	}
	zero := got["BenchmarkZero"]
	if !zero.HasAllocs || zero.Allocs != 0 {
		t.Errorf("BenchmarkZero = %+v, want HasAllocs with 0 allocs/op", zero)
	}
	if got["BenchmarkPlain"].HasAllocs {
		t.Errorf("BenchmarkPlain = %+v, want no allocs metric", got["BenchmarkPlain"])
	}
}

func TestParseBenchRejectsGarbage(t *testing.T) {
	if _, err := parseBench(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected an error for a non-JSON stream")
	}
}
