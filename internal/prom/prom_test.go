package prom

import (
	"strings"
	"testing"
)

func TestWriteExposition(t *testing.T) {
	var r Registry
	g := r.Gauge("g", "A gauge.")
	c := r.Counter("c_total", "A counter.")
	v := r.CounterVec("v_total", "A family.", "k", "zeta", "alpha")
	r.Func("f", "An integral function.", "counter", func() float64 { return 1234567 })
	r.Func("gap", "A fractional function.", "gauge", func() float64 { return 0.125 })
	h := r.HistogramVec("h_seconds", "A histogram.", "stage")

	g.Add(-2)
	c.Inc()
	c.Add(2)
	v.With("mid").Inc() // run-time values follow the presets, sorted
	v.With("beta").Add(4)
	v.With("zeta").Inc()
	h.With("b").Observe(0.003)
	h.With("a").Observe(100)

	var sb strings.Builder
	r.Write(&sb)
	got := sb.String()
	want := `# HELP g A gauge.
# TYPE g gauge
g -2
# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP v_total A family.
# TYPE v_total counter
v_total{k="zeta"} 1
v_total{k="alpha"} 0
v_total{k="beta"} 4
v_total{k="mid"} 1
# HELP f An integral function.
# TYPE f counter
f 1234567
# HELP gap A fractional function.
# TYPE gap gauge
gap 0.125
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
`
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition:\n%s\nwant prefix:\n%s", got, want)
	}
	for _, line := range []string{
		`h_seconds_bucket{stage="a",le="60"} 0`,
		`h_seconds_bucket{stage="a",le="+Inf"} 1`,
		`h_seconds_sum{stage="a"} 100`,
		`h_seconds_bucket{stage="b",le="0.0025"} 0`,
		`h_seconds_bucket{stage="b",le="0.005"} 1`,
		`h_seconds_count{stage="b"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	if strings.Index(got, `stage="a"`) > strings.Index(got, `stage="b"`) {
		t.Error("histogram series not sorted by label value")
	}
}
