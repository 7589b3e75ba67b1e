package window

import (
	"reflect"
	"testing"

	"mclg/internal/design"
)

// TestDirtyBandsSelectByRange pins the basic selection contract: a dirty row
// pulls in exactly the bands whose sub range covers it, in ascending order,
// and an empty dirty set selects nothing.
func TestDirtyBandsSelectByRange(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if got := p.DirtyBands(d, nil); got != nil {
		t.Fatalf("DirtyBands(nil) = %v, want nil", got)
	}
	for i, b := range p.Bands {
		got := p.DirtyBands(d, map[int]bool{b.RowLo: true})
		found := false
		for _, bi := range got {
			if bi == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("dirty row %d (band %d's RowLo) did not select band %d: %v", b.RowLo, i, i, got)
		}
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("DirtyBands not ascending: %v", got)
			}
		}
	}
}

// TestDirtyBandsOverhangCrossing is the regression test for tall-cell
// overhangs: a multi-row cell assigned near the top of its band occupies
// rows inside the next band's territory, and dirtying only one of those
// overhang rows must still pull in the *owner* band — it is the only band
// allowed to move the cell. The second half clamps the owner's SubHi down
// to its owned range, simulating a Partition that no longer extends sub
// ranges past tall cells, and asserts the owned-span safety net alone still
// catches the crossing.
func TestDirtyBandsOverhangCrossing(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 2, 1)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	// Find a cell whose occupied span crosses its band's owned upper bound.
	cross, owner := -1, -1
	for id, o := range p.Owner {
		if o < 0 {
			continue
		}
		if top := p.AssignedRow[id] + d.Cells[id].RowSpan; top > p.Bands[o].RowHi {
			cross, owner = id, o
			break
		}
	}
	if cross < 0 {
		t.Skip("no overhang-crossing cell at this partition; benchmark geometry changed")
	}
	overhangRow := p.Bands[owner].RowHi // first row past the owned range
	dirty := map[int]bool{overhangRow: true}

	sel := p.DirtyBands(d, dirty)
	if !containsBand(sel, owner) {
		t.Fatalf("dirty overhang row %d did not select owner band %d: %v", overhangRow, owner, sel)
	}

	// Clamp the owner's sub range to its owned rows so the range test alone
	// can no longer see the overhang; the owned-span walk must still fire.
	clamped := *p
	clamped.Bands = append([]Band(nil), p.Bands...)
	if clamped.Bands[owner].SubHi > clamped.Bands[owner].RowHi {
		clamped.Bands[owner].SubHi = clamped.Bands[owner].RowHi
	}
	sel = clamped.DirtyBands(d, dirty)
	if !containsBand(sel, owner) {
		t.Fatalf("owned-span safety net missed: dirty row %d, owner band %d not in %v", overhangRow, owner, sel)
	}
}

func containsBand(sel []int, want int) bool {
	for _, bi := range sel {
		if bi == want {
			return true
		}
	}
	return false
}

// TestBuildRunMergesBands checks that a run built from two adjacent bands
// owns exactly the union of their owned cells, movable, with global
// positions preserved — and that cells outside the run appear only as fixed
// context or not at all.
func TestBuildRunMergesBands(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if len(p.Bands) < 2 {
		t.Fatalf("need at least 2 bands, got %d", len(p.Bands))
	}
	sub, idx := p.BuildRun(d, []int{0, 1}, new(SubBuf))

	want := make(map[int]bool)
	for _, bi := range []int{0, 1} {
		for _, id := range p.Bands[bi].Owned {
			want[id] = true
		}
	}
	got := make(map[int]bool)
	for i, c := range sub.Cells {
		if idx[i] < 0 {
			if !c.Fixed {
				t.Fatalf("context cell %d (%s) not fixed", i, c.Name)
			}
			continue
		}
		id := idx[i]
		if !want[id] {
			t.Fatalf("run owns cell %d, not owned by bands 0-1", id)
		}
		if c.Fixed {
			t.Fatalf("owned cell %d fixed in run sub-design", id)
		}
		if c.GX != d.Cells[id].GX || c.GY != d.Cells[id].GY {
			t.Fatalf("cell %d global position (%g,%g) != (%g,%g)", id, c.GX, c.GY, d.Cells[id].GX, d.Cells[id].GY)
		}
		got[id] = true
	}
	if len(got) != len(want) {
		t.Fatalf("run owns %d cells, want %d", len(got), len(want))
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("run sub-design invalid: %v", err)
	}
}

// TestRepartitionReusesPlan checks that rebuilding one plan in place gives
// exactly the plan a fresh Partition gives while the design grows, shrinks
// and moves and the window parameters change between builds, and that a
// rebuild for a design of the same shape allocates nothing.
func TestRepartitionReusesPlan(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	var p Plan
	for step := 0; step < 8; step++ {
		switch step % 3 {
		case 0:
			c := d.AddCell("grow", 3*d.SiteW, d.RowHeight, design.VSS)
			c.GX = d.Core.Lo.X + float64(step)*5*d.SiteW
			c.GY = d.RowY(step)
			c.X, c.Y = c.GX, c.GY
		case 1:
			if last := d.Cells[len(d.Cells)-1]; !last.Fixed {
				d.Cells = d.Cells[:len(d.Cells)-1]
			}
		case 2:
			for _, c := range d.Cells[:20] {
				if !c.Fixed {
					c.GY = min(c.GY+d.RowHeight, d.Core.Hi.Y-c.H)
				}
			}
		}
		windowRows, contextRows := 4, 2
		if step >= 4 {
			windowRows, contextRows = 2, 1
		}
		if err := p.Repartition(d, windowRows, contextRows); err != nil {
			t.Fatalf("step %d: Repartition: %v", step, err)
		}
		want, err := Partition(d, windowRows, contextRows)
		if err != nil {
			t.Fatalf("step %d: Partition: %v", step, err)
		}
		if !reflect.DeepEqual(p.AssignedRow, want.AssignedRow) || !reflect.DeepEqual(p.Owner, want.Owner) ||
			!reflect.DeepEqual(p.Bands, want.Bands) || p.WindowRows != want.WindowRows || p.ContextRows != want.ContextRows {
			t.Fatalf("step %d: plan rebuilt in place differs from a fresh Partition", step)
		}
	}
	if a := testing.AllocsPerRun(10, func() { _ = p.Repartition(d, 2, 1) }); a != 0 {
		t.Errorf("Repartition of a design of the same shape: %.0f allocs, want 0", a)
	}
}

// TestBuildRunReusesBuffer checks that runs built one after another into
// one buffer equal runs built into fresh buffers, and that rebuilding a run
// allocates nothing.
func TestBuildRunReusesBuffer(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	n := len(p.Bands)
	if n < 4 {
		t.Fatalf("need at least 4 bands, got %d", n)
	}
	var buf SubBuf
	runs := [][]int{{0, 1}, {n - 1}, {1, 2, 3}, {2}, {0, 1}}
	for _, r := range runs {
		sub, idx := p.BuildRun(d, r, &buf)
		want, wantIdx := p.BuildRun(d, r, new(SubBuf))
		if sub.Name != want.Name || sub.Core != want.Core || sub.RowHeight != want.RowHeight ||
			sub.SiteW != want.SiteW || !reflect.DeepEqual(sub.Rows, want.Rows) || !reflect.DeepEqual(idx, wantIdx) ||
			len(sub.Cells) != len(want.Cells) {
			t.Fatalf("run %v: sub-design built into a reused buffer differs from a fresh build", r)
		}
		for i, c := range sub.Cells {
			if *c != *want.Cells[i] {
				t.Fatalf("run %v: cell %d = %v, want %v", r, i, c, want.Cells[i])
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { p.BuildRun(d, runs[0], &buf) }); a != 0 {
		t.Errorf("rebuilding a run: %.0f allocs, want 0", a)
	}
}
