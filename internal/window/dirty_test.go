package window

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"mclg/internal/design"
)

// TestDirtyRunsSelectByRange pins the selection contract: a band is dirty
// exactly when a dirty row falls inside its sub range, the runs own every
// dirty band's cells once, and they are ascending with disjoint sub
// ranges. An empty dirty set selects nothing.
func TestDirtyRunsSelectByRange(t *testing.T) {
	d := genDesign(t, "superblue19", 0.01)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if runs, bands := p.DirtyRuns(nil); len(runs) != 0 || bands != 0 {
		t.Fatalf("DirtyRuns(nil) = %d runs over %d bands, want none", len(runs), bands)
	}
	for _, rows := range [][]int{{0}, {5}, {3, 17, 18, 40}, {10, 11, 12, 50, 70}, {len(d.Rows) - 1}} {
		dirty := map[int]bool{}
		for _, r := range rows {
			dirty[r] = true
		}
		want := map[int]bool{} // the IDs the dirty bands own
		wantBands := 0
		for _, b := range p.Bands {
			for _, r := range rows {
				if r >= b.SubLo && r < b.SubHi {
					wantBands++
					for _, id := range b.Owned {
						want[id] = true
					}
					break
				}
			}
		}
		runs, bands := p.DirtyRuns(dirty)
		if bands != wantBands {
			t.Fatalf("rows %v: %d dirty bands, want %d", rows, bands, wantBands)
		}
		got := map[int]bool{}
		for i, r := range runs {
			if i > 0 && r.SubLo < runs[i-1].SubHi {
				t.Fatalf("rows %v: run %d sub range [%d,%d) overlaps run %d's [%d,%d)",
					rows, i, r.SubLo, r.SubHi, i-1, runs[i-1].SubLo, runs[i-1].SubHi)
			}
			for _, id := range r.Owned {
				if got[id] || !want[id] {
					t.Fatalf("rows %v: run %d owns cell %d twice or from a clean band", rows, i, id)
				}
				got[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rows %v: runs own %d cells, dirty bands %d", rows, len(got), len(want))
		}
	}
}

// TestDirtyRunsOverhangCrossing is the regression test for tall-cell
// overhangs: a multi-row cell assigned near the top of its band occupies
// rows inside the next band's territory, and dirtying only one of those
// overhang rows must still pull in the *owner* band — it is the only band
// allowed to move the cell.
func TestDirtyRunsOverhangCrossing(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 2, 1)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	// Find a cell whose occupied span crosses its band's owned upper bound.
	cross, owner := -1, -1
	for bi, b := range p.Bands {
		for _, id := range b.Owned {
			if p.AssignedRow[id]+d.Cells[id].RowSpan > b.RowHi {
				cross, owner = id, bi
				break
			}
		}
		if cross >= 0 {
			break
		}
	}
	if cross < 0 {
		t.Skip("no overhang-crossing cell at this partition; benchmark geometry changed")
	}
	overhangRow := p.Bands[owner].RowHi // first row past the owned range
	runs, _ := p.DirtyRuns(map[int]bool{overhangRow: true})
	for _, r := range runs {
		if slices.Contains(r.Owned, cross) {
			return
		}
	}
	t.Fatalf("dirty overhang row %d did not pull in owner band %d of cell %d: runs %v", overhangRow, owner, cross, runs)
}

// subDigest hashes everything a built sub-design carries.
func subDigest(sub *design.Design, idx []int) string {
	h := fnv.New64a()
	fmt.Fprint(h, sub.Name, sub.Core, sub.RowHeight, sub.SiteW, sub.Rows, idx, sub.Nets == nil)
	for _, c := range sub.Cells {
		fmt.Fprint(h, *c)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDirtyRunsBuildPinnedSubs pins the sub-designs SubBuf.Build makes of
// DirtyRuns' runs to digests recorded when the ECO apply merged the dirty
// bands itself and the plan built each run from its list of band indices,
// for the same dirty rows. The cases cover runs of consecutive bands, of
// bands with a clean band between them, and several runs at once.
func TestDirtyRunsBuildPinnedSubs(t *testing.T) {
	for _, tc := range []struct {
		bench                  string
		scale                  float64
		windowRows, marginRows int
		rows                   []int
		bands                  int
		digests                []string
	}{
		{"fft_2", 0.004, 4, 2, []int{5}, 2, []string{"168f62ad871fc6ce"}},
		{"fft_2", 0.004, 4, 2, []int{0, 13}, 3, []string{"119556cf7431bb7f"}},
		{"fft_2", 0.004, 2, 1, []int{5}, 3, []string{"fcc428c3be881bbf"}},
		{"fft_2", 0.004, 2, 1, []int{0, 6}, 3, []string{"8e7b85539b3673e7"}},
		{"superblue19", 0.01, 4, 2, []int{3, 17, 18, 40}, 7, []string{"2c870f55e2908819", "885e1f4113dc8443"}},
		{"superblue19", 0.01, 4, 2, []int{10, 11, 12, 50, 70}, 9, []string{"a5b0393e8a5414a8", "aba60b2a34ca090c", "09a8a8ff3f622fc4"}},
		{"superblue19", 0.01, 2, 1, []int{0, 40, 41, 87}, 6, []string{"2cb20583d120def1", "4b1cae360fe1c2a0", "e4f12c66b9e87a01"}},
		{"superblue19", 0.01, 2, 1, []int{0, 7}, 4, []string{"b7f13fd24310100a"}},
	} {
		d := genDesign(t, tc.bench, tc.scale)
		p, err := Partition(d, tc.windowRows, tc.marginRows)
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		dirty := map[int]bool{}
		for _, r := range tc.rows {
			dirty[r] = true
		}
		runs, bands := p.DirtyRuns(dirty)
		var got []string
		var buf SubBuf
		for i := range runs {
			got = append(got, subDigest(buf.Build(d, p, &runs[i])))
		}
		if bands != tc.bands || !slices.Equal(got, tc.digests) {
			t.Errorf("%s %dx%d rows %v: %d bands, subs %q; want %d bands, subs %q",
				tc.bench, tc.windowRows, tc.marginRows, tc.rows, bands, got, tc.bands, tc.digests)
		}
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
		if !reflect.DeepEqual(p.AssignedRow, want.AssignedRow) || !reflect.DeepEqual(p.Bands, want.Bands) {
			t.Fatalf("step %d: plan rebuilt in place differs from a fresh Partition", step)
		}
	}
	if a := testing.AllocsPerRun(10, func() { _ = p.Repartition(d, 2, 1) }); a != 0 {
		t.Errorf("Repartition of a design of the same shape: %.0f allocs, want 0", a)
	}
}

// TestSubBufBuildReusesBuffer checks that DirtyRuns' runs built one after
// another into one buffer equal runs built into fresh buffers, and that
// recomputing the runs and rebuilding a run allocates nothing.
func TestSubBufBuildReusesBuffer(t *testing.T) {
	d := genDesign(t, "superblue19", 0.01)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	dirty := map[int]bool{3: true, 17: true, 50: true, 70: true, 87: true}
	runs, _ := p.DirtyRuns(dirty)
	if len(runs) < 3 {
		t.Fatalf("need at least 3 runs, got %d", len(runs))
	}
	var buf SubBuf
	for _, i := range []int{0, len(runs) - 1, 1, 0} {
		sub, idx := buf.Build(d, p, &runs[i])
		want, wantIdx := new(SubBuf).Build(d, p, &runs[i])
		if sub.Name != want.Name || sub.Core != want.Core || sub.RowHeight != want.RowHeight ||
			sub.SiteW != want.SiteW || !reflect.DeepEqual(sub.Rows, want.Rows) || !reflect.DeepEqual(idx, wantIdx) ||
			len(sub.Cells) != len(want.Cells) {
			t.Fatalf("run %d: sub-design built into a reused buffer differs from a fresh build", i)
		}
		for k, c := range sub.Cells {
			if *c != *want.Cells[k] {
				t.Fatalf("run %d: cell %d = %v, want %v", i, k, c, want.Cells[k])
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		runs, _ := p.DirtyRuns(dirty)
		buf.Build(d, p, &runs[0])
	}); a != 0 {
		t.Errorf("recomputing the runs and rebuilding one: %.0f allocs, want 0", a)
	}
}
