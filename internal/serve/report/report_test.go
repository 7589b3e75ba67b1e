package report

import (
	"encoding/json"
	"testing"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/window"
)

func mkDesign() *design.Design {
	d := design.NewDesign(design.Config{NumRows: 4, NumSites: 100, RowHeight: 10, SiteW: 2})
	a := d.AddCell("a", 4, 10, design.VSS)
	a.GX, a.GY, a.X, a.Y = 10, 0, 12, 0
	b := d.AddCell("b", 4, 10, design.VSS)
	b.GX, b.GY, b.X, b.Y = 20, 10, 20, 10
	b.Flipped = true
	return d
}

func TestFromDesignMeasures(t *testing.T) {
	d := mkDesign()
	r := FromDesign(d, "ours", 1500*time.Microsecond)
	if r.Design != d.Name || r.Cells != 2 || r.Method != "ours" {
		t.Errorf("header fields: %+v", r)
	}
	if r.DisplacementSites != 1 { // cell a moved 2 dbu = 1 site
		t.Errorf("DisplacementSites = %g, want 1", r.DisplacementSites)
	}
	if r.AvgDispSites != 0.5 {
		t.Errorf("AvgDispSites = %g, want 0.5", r.AvgDispSites)
	}
	if r.WallMS != 1.5 {
		t.Errorf("WallMS = %g, want 1.5", r.WallMS)
	}
	if r.PosHash == "" {
		t.Error("PosHash empty")
	}
}

// TestPlacementRoundTrip pins the client contract: capture on the server,
// JSON across the wire, apply onto a fresh local copy → bit-identical
// positions and an unchanged digest.
func TestPlacementRoundTrip(t *testing.T) {
	d := mkDesign()
	r := FromDesign(d, "ours", 0)
	r.CapturePlacement(d)

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}

	fresh := mkDesign()
	fresh.Cells[0].X, fresh.Cells[0].Y = 0, 0 // scramble
	fresh.Cells[1].Flipped = false
	if !decoded.ApplyPlacement(fresh) {
		t.Fatal("ApplyPlacement refused a matching design")
	}
	for i, c := range fresh.Cells {
		o := d.Cells[i]
		if c.X != o.X || c.Y != o.Y || c.Flipped != o.Flipped {
			t.Errorf("cell %d: (%g,%g,%v) != (%g,%g,%v)", i, c.X, c.Y, c.Flipped, o.X, o.Y, o.Flipped)
		}
	}
	if got := FromDesign(fresh, "ours", 0).PosHash; got != r.PosHash {
		t.Errorf("pos_hash after round trip = %s, want %s", got, r.PosHash)
	}
}

func TestApplyPlacementRejectsMismatch(t *testing.T) {
	d := mkDesign()
	r := FromDesign(d, "ours", 0)
	if r.ApplyPlacement(d) {
		t.Error("ApplyPlacement must refuse when no placement is attached")
	}
	r.CapturePlacement(d)
	small := design.NewDesign(design.Config{NumRows: 4, NumSites: 100, RowHeight: 10, SiteW: 2})
	small.AddCell("only", 4, 10, design.VSS)
	if r.ApplyPlacement(small) {
		t.Error("ApplyPlacement must refuse a cell-count mismatch")
	}
}

// The finish fields appear exactly when the active-set finish ran.
func TestSetStatsFinishFields(t *testing.T) {
	r := FromDesign(mkDesign(), "ours", 0)
	r.SetStats(&core.Stats{Iterations: 5, Converged: true,
		Finish: core.FinishStats{Rounds: 3, PCG: 12, Outcome: core.FinishAccepted}})
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["finish"] != "accepted" || got["finish_rounds"] != 3.0 || got["finish_pcg_iters"] != 12.0 || got["iterations"] != 5.0 {
		t.Errorf("finish fields = %v / %v / %v, iterations %v", got["finish"], got["finish_rounds"], got["finish_pcg_iters"], got["iterations"])
	}

	r.SetStats(&core.Stats{Iterations: 700, Converged: true}) // MMSIM only
	raw, _ = json.Marshal(r)
	got = nil
	_ = json.Unmarshal(raw, &got)
	for _, k := range []string{"finish", "finish_rounds", "finish_pcg_iters"} {
		if _, ok := got[k]; ok {
			t.Errorf("%s present although the finish did not run", k)
		}
	}
}

// TestWindowsJSON pins the wire form of the report's "windows" section,
// which is window.Stats marshaled as is.
func TestWindowsJSON(t *testing.T) {
	for _, c := range []struct {
		st   window.Stats
		want string
	}{
		{window.Stats{Windows: 7, Solved: 5, Resumed: 2, Retries: 3, Panics: 1, HedgesIssued: 4, HedgesWon: 2, Degraded: 1,
			Exact: &window.ExactStats{Selected: 2, Improved: 1, Proven: 1, Skipped: 1, MaxGap: 0.125,
				Gaps: []window.WindowGap{{Window: 3, Cells: 12, Gap: 0.125, Proven: true, Improved: true, MaxDispBefore: 4, MaxDispAfter: 2.5}}}},
			`{"total":7,"solved":5,"resumed":2,"retries":3,"panics":1,"hedges_issued":4,"hedges_won":2,"degraded":1,"exact":{"selected":2,"improved":1,"proven":1,"skipped":1,"max_gap":0.125,"gaps":[{"window":3,"cells":12,"gap":0.125,"proven":true,"improved":true,"max_disp_before":4,"max_disp_after":2.5}]}}`},
		{window.Stats{Windows: 3, Solved: 3, Exact: &window.ExactStats{}},
			`{"total":3,"solved":3,"exact":{"selected":0,"improved":0,"proven":0,"max_gap":0}}`},
	} {
		raw, err := json.Marshal(&Report{Windows: &c.st})
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Windows json.RawMessage }
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if string(got.Windows) != c.want {
			t.Errorf("windows = %s\nwant      %s", got.Windows, c.want)
		}
	}
}
