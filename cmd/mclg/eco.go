// The -eco flow: load a design, open an in-memory ECO session over it,
// stream the delta batches from a JSON file, certify the final state by
// replaying the journal from base, and print the outcome.
//
// The deltas file is either a single batch — a JSON array of delta
// objects — or a multi-batch document {"batches": [[...], [...]]}. Each
// delta is the same shape the daemon accepts on /v1/eco:
//
//	{"op": "move", "cell": 12, "x": 104.0, "y": 36.0}
//	{"op": "insert", "name": "u_eco1", "x": 80, "y": 24, "w": 4.8, "h": 12}
//	{"op": "delete", "cell": 7}
//	{"op": "resize", "cell": 3, "w": 9.6, "h": 24}
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mclg/internal/audit"
	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/serve/report"
)

// ecoFile is the on-disk deltas document accepted by -eco.
type ecoFile struct {
	Batches [][]eco.Delta `json:"batches"`
}

// ecoReport is the -json document for an -eco run: the final placement
// report plus per-batch apply results and the sealed replay certificate.
type ecoReport struct {
	Report      *report.Report           `json:"report"`
	Applies     []*eco.ApplyResult       `json:"applies"`
	Certificate *audit.ReplayCertificate `json:"certificate"`
}

// loadDeltas reads either a bare batch array or a {"batches": ...} doc.
func loadDeltas(path string) ([][]eco.Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var one []eco.Delta
	if err := json.Unmarshal(data, &one); err == nil {
		return [][]eco.Delta{one}, nil
	}
	var doc ecoFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: want a JSON delta array or {\"batches\": [...]}: %w", path, err)
	}
	return doc.Batches, nil
}

// runEco drives a whole ECO session locally: create, apply every batch,
// commit (certify), close. Exit status 1 if the certificate fails.
func runEco(ctx context.Context, d *design.Design, ecoPath string,
	opts eco.Options, jsonOut bool, outPath string) {
	batches, err := loadDeltas(ecoPath)
	if err != nil {
		fatal(err)
	}
	if len(batches) == 0 {
		fatal(fmt.Errorf("%s: no delta batches", ecoPath))
	}

	t0 := time.Now()
	s, err := eco.Create(ctx, "cli", d, opts)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	fmt.Fprintf(info, "eco session over %s: %d cells, base hash %s\n",
		d.Name, len(d.Cells), s.PosHash())

	applies := make([]*eco.ApplyResult, 0, len(batches))
	for i, batch := range batches {
		res, err := s.Apply(ctx, batch)
		if err != nil {
			fatal(fmt.Errorf("batch %d/%d: %w", i+1, len(batches), err))
		}
		applies = append(applies, res)
		fmt.Fprintf(info, "  batch %d: %d deltas, %d dirty rows, %d bands in %d runs (%d repaired) -> %s\n",
			res.Seq, res.Deltas, res.DirtyRows, res.Bands, res.Runs, res.Repaired, res.PosHash)
	}

	cert, err := s.Certify(ctx)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)

	final := s.Design()
	rep := report.FromDesign(final, "eco", elapsed)
	fmt.Fprintf(info, "eco: %d batches (%d deltas) in %v\n",
		len(applies), countDeltas(applies), elapsed)
	fmt.Fprintf(info, "total displacement: %.0f sites (max %.0f, avg %.2f)\n",
		rep.DisplacementSites, rep.MaxDispSites, rep.AvgDispSites)
	fmt.Fprintf(info, "legality: %s\n", legality(final, rep.Legal))
	fmt.Fprintf(info, "%s\n", cert.Summary())

	if jsonOut {
		printJSON(&ecoReport{Report: rep, Applies: applies, Certificate: cert})
	}
	if outPath != "" {
		writeLegalized(final, outPath)
	}
	if !rep.Legal || !cert.Pass {
		os.Exit(1)
	}
}

func countDeltas(applies []*eco.ApplyResult) int {
	n := 0
	for _, a := range applies {
		n += a.Deltas
	}
	return n
}
