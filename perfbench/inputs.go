package main

import (
	"fmt"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/metrics"
)

// suiteDesign names one design family: a Table 1 suite entry at a scale.
type suiteDesign struct {
	entry string
	scale float64
}

// generate builds the design of family sd whose generator seed is input k
// of the workload seed.
func generate(seed int64, k int, sd suiteDesign) (*design.Design, error) {
	e, err := gen.FindEntry(sd.entry)
	if err != nil {
		return nil, err
	}
	spec := gen.SuiteSpec(e, sd.scale)
	spec.Seed = mix(seed, k)
	spec.Name = fmt.Sprintf("%s_%d", sd.entry, k)
	return gen.Generate(spec)
}

// quality sums the placement-quality figures over committed placements:
// the total displacement in sites, and the means over placements of the
// largest single-cell displacement in sites and of ΔHPWL. The largest
// displacement is averaged per placement rather than maximized over all
// of them: the maximum over a run's placements is one cell's outlier and
// moves with every seed.
type quality struct {
	n         int
	dispTotal float64
	dispMaxes float64
	dhpwlSum  float64
}

func (q *quality) addDesign(d *design.Design) {
	m := metrics.MeasureDisplacement(d)
	q.add(m.TotalSites, m.MaxSites, metrics.DeltaHPWL(d))
}

func (q *quality) add(total, maxSites, deltaHPWL float64) {
	q.n++
	q.dispTotal += total
	q.dispMaxes += maxSites
	q.dhpwlSum += deltaHPWL
}

// set reports the quality metrics. Only the total displacement is gated.
// The largest displacement of eco-stream's single placement is one cell's
// outlier that moves with every seed, and ΔHPWL on these designs is
// hundredths of a percent, so its mean sits near zero where a
// share-of-median bound means nothing; both are printed.
func (q *quality) set(r *report) {
	r.set("disp_sites_total", q.dispTotal)
	if q.n > 0 {
		r.printed("max_disp_sites", "sites", q.dispMaxes/float64(q.n), fmt.Sprintf("mean over %d placements", q.n))
		r.printed("delta_hpwl_pct", "%", 100*q.dhpwlSum/float64(q.n), fmt.Sprintf("mean over %d placements", q.n))
	}
}
