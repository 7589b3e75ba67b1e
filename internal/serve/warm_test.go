package serve

import (
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mclg/internal/bookshelf"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/serve/report"
)

// bookshelfFiles serializes a design into the upload-files map.
func bookshelfFiles(t testing.TB, d *design.Design) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := bookshelf.Write(d, filepath.Join(dir, "up.aux")); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for comp, name := range map[string]string{
		"nodes": "up.nodes", "nets": "up.nets", "pl": "up.pl", "scl": "up.scl", "wts": "up.wts",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		files[comp] = string(raw)
	}
	return files
}

// warmPair generates a suite design plus a ≤1%-perturbed near-match whose
// per-row orderings are unchanged (structure signature preserved).
func warmPair(t *testing.T) (base, perturbed map[string]string) {
	t.Helper()
	e, err := gen.FindEntry("pci_bridge32_b")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	base = bookshelfFiles(t, d)

	rng := rand.New(rand.NewSource(431))
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		c.GX += (rng.Float64()*2 - 1) * 1e-3
		c.X = c.GX
	}
	perturbed = bookshelfFiles(t, d)
	if base["pl"] == perturbed["pl"] {
		t.Fatal("perturbation did not change the pl component")
	}
	if base["nodes"] != perturbed["nodes"] || base["scl"] != perturbed["scl"] {
		t.Fatal("perturbation changed a non-pl component")
	}
	return base, perturbed
}

// TestWarmNearMatchAcceleration drives the full serving path: a perturbed
// re-submit of a known topology must be warm-seeded, converge in fewer
// iterations, and yield the placement a cold daemon produces for the same
// input, with the warm metrics reflecting the hit.
func TestWarmNearMatchAcceleration(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark twice")
	}
	base, perturbed := warmPair(t)
	_, ts := newTestServer(t, Config{})

	var cold report.Report
	if resp := post(t, ts.URL, &Request{Files: base}, &cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: HTTP %d", resp.StatusCode)
	}
	if cold.Warm {
		t.Fatal("first solve of a topology reported warm")
	}

	var warm report.Report
	if resp := post(t, ts.URL, &Request{Files: perturbed}, &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: HTTP %d", resp.StatusCode)
	}
	if !warm.Warm {
		t.Fatal("perturbed re-submit was not warm-seeded")
	}
	if warm.Cache != "miss" {
		t.Errorf("perturbed re-submit cache = %q, want miss (different exact key)", warm.Cache)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold baseline %d", warm.Iterations, cold.Iterations)
	}

	// A fresh daemon with no warm state must produce the identical placement
	// for the perturbed input: warm seeding changes the starting iterate only.
	_, ref := newTestServer(t, Config{})
	var refRep report.Report
	if resp := post(t, ref.URL, &Request{Files: perturbed}, &refRep); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference solve: HTTP %d", resp.StatusCode)
	}
	if refRep.PosHash != warm.PosHash {
		t.Fatalf("warm pos_hash %s != cold pos_hash %s", warm.PosHash, refRep.PosHash)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	metrics := string(raw)
	for _, want := range []string{
		"mclgd_warm_hits_total 1",
		"mclgd_warm_misses_total 1",
		"mclgd_warm_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "mclgd_warm_iterations_saved_total") {
		t.Error("metrics missing mclgd_warm_iterations_saved_total")
	} else if strings.Contains(metrics, "mclgd_warm_iterations_saved_total 0\n") {
		t.Error("warm hit saved no iterations")
	}
	if !strings.Contains(metrics, "mclgd_solve_allocs_total") ||
		!strings.Contains(metrics, "mclgd_solve_alloc_samples_total 2") {
		t.Error("metrics missing solve allocation accounting")
	}
}

// TestWarmDisabled pins the opt-out: WarmCap < 0 turns the store off and
// every solve runs cold.
func TestWarmDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark twice")
	}
	base, perturbed := warmPair(t)
	_, ts := newTestServer(t, Config{WarmCap: -1})

	var first, second report.Report
	if resp := post(t, ts.URL, &Request{Files: base}, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL, &Request{Files: perturbed}, &second); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if first.Warm || second.Warm {
		t.Errorf("warm store disabled but Warm = %v/%v", first.Warm, second.Warm)
	}
}

// TestTopoKeyNearMatchRules pins what counts as "the same topology": cell
// positions and iteration-steering options are excluded, everything that
// shapes the assembled problem is included.
func TestTopoKeyNearMatchRules(t *testing.T) {
	base := &Request{Files: map[string]string{
		"nodes": "n", "pl": "p1", "scl": "s",
	}}
	if err := base.validate(); err != nil {
		t.Fatal(err)
	}
	k := base.topoKey()

	moved := &Request{Files: map[string]string{"nodes": "n", "pl": "p2", "scl": "s"}}
	if err := moved.validate(); err != nil {
		t.Fatal(err)
	}
	if moved.topoKey() != k {
		t.Error("a pl-only change must preserve the topology key")
	}
	if moved.key() == base.key() {
		t.Error("a pl change must still change the exact cache key")
	}

	eps := &Request{Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s"},
		Options: &OptionsJSON{Eps: 1e-6, MaxIter: 500, Workers: 4}}
	if err := eps.validate(); err != nil {
		t.Fatal(err)
	}
	if eps.topoKey() != k {
		t.Error("eps/max_iter/workers must not enter the topology key")
	}

	for name, req := range map[string]*Request{
		"nodes":      {Files: map[string]string{"nodes": "n2", "pl": "p1", "scl": "s"}},
		"scl":        {Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s2"}},
		"lambda":     {Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s"}, Options: &OptionsJSON{Lambda: 500}},
		"beta":       {Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s"}, Options: &OptionsJSON{Beta: 0.7}},
		"boundright": {Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s"}, Options: &OptionsJSON{BoundRight: true}},
		"method":     {Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s"}, Method: "dac16"},
		"resilient":  {Files: map[string]string{"nodes": "n", "pl": "p1", "scl": "s"}, Resilient: true},
	} {
		if err := req.validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if req.topoKey() == k {
			t.Errorf("changing %s must change the topology key", name)
		}
	}
}
