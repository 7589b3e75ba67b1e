package design_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
)

func generate(t *testing.T, name string, scale float64, macros int) *design.Design {
	t.Helper()
	e, err := gen.FindEntry(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.SuiteSpec(e, scale)
	if macros > 0 {
		spec.FixedMacros = macros
	}
	d, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// reportDigest hashes each violation's kind, cells and message, in order.
func reportDigest(vs []design.Violation) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%s|%v|%s\n", v.Kind, v.Cells, v.Msg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCheckLegalGolden pins CheckLegal's report on three unlegalized
// generated designs to the bytes of the single x-sweep checker, whose
// digests were recorded before the row-band kernel replaced it. Audit
// certificates hash these reports. superblue19 carries fixed macros, which
// the suite specs leave out, so fixed-movable overlaps are covered. The
// reference copy of the old checker must reproduce the same digests.
func TestCheckLegalGolden(t *testing.T) {
	for _, c := range []struct {
		name              string
		scale             float64
		macros            int
		violations, overl int
		digest            string
	}{
		{"fft_2", 0.004, 0, 335, 97, "aa0c94b53fec987ee487ff34f2b892053b8c044c67b66404ac4c0e450162b086"},
		{"des_perf_1", 0.008, 0, 2815, 1069, "2dd7b919ca1d1bd46c4445a38e3b9a37c8fcdce1f2962c966ecc4621a491f13b"},
		{"superblue19", 0.004, 4, 5227, 1231, "3b56cae9c4ad22771671a396fed2f8fe9165440650b4c1c0d227b0fa66d20aea"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := generate(t, c.name, c.scale, c.macros)
			for _, check := range []struct {
				name string
				rep  *design.LegalityReport
			}{{"CheckLegal", design.CheckLegal(d)}, {"reference", design.CheckLegalRef(d)}} {
				rep := check.rep
				if len(rep.Violations) != c.violations || rep.Count(design.VOverlap) != c.overl {
					t.Errorf("%s: %d violations, %d overlaps; want %d, %d",
						check.name, len(rep.Violations), rep.Count(design.VOverlap), c.violations, c.overl)
				}
				if got := reportDigest(rep.Violations); got != c.digest {
					t.Errorf("%s: digest %s, want %s", check.name, got, c.digest)
				}
			}
			if design.IsLegal(d) {
				t.Error("IsLegal accepts an unlegalized design")
			}
		})
	}
}

// TestCheckLegalSuiteMatchesReference compares the kernel with the reference
// on suite designs in three states: the global placement, the same with half
// its cells scattered over the core, and legalized.
func TestCheckLegalSuiteMatchesReference(t *testing.T) {
	for _, name := range []string{"fft_2", "des_perf_1", "matrix_mult_1", "superblue19"} {
		t.Run(name, func(t *testing.T) {
			d := generate(t, name, 0.01, 2)
			scattered := d.Clone()
			rng := rand.New(rand.NewSource(1))
			for _, c := range scattered.Cells {
				if !c.Fixed && rng.Intn(2) == 0 {
					c.X = d.Core.Lo.X + rng.Float64()*(d.Core.W()-c.W)
					c.Y = d.Core.Lo.Y + rng.Float64()*(d.Core.H()-c.H)
				}
			}
			legal := d.Clone()
			if _, err := core.New(core.Options{}).Legalize(legal); err != nil {
				t.Fatal(err)
			}
			for _, s := range []struct {
				state string
				d     *design.Design
			}{{"gp", d}, {"scattered", scattered}, {"legalized", legal}} {
				want := design.CheckLegalRef(s.d).Violations
				if got := design.CheckLegal(s.d).Violations; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: report differs from the reference (%d vs %d violations)", s.state, len(got), len(want))
				}
				if got := design.IsLegal(s.d); got != (len(want) == 0) {
					t.Errorf("%s: IsLegal = %v with %d reference violations", s.state, got, len(want))
				}
			}
			if len(design.CheckLegalRef(legal).Violations) != 0 {
				t.Error("legalized design is not legal")
			}
		})
	}
}
