package main

import (
	"flag"
	"testing"
)

// TestEcoSessionTakesJobOptions pins the one flags-to-options mapping: the
// -eco session runs with the request's resolved solver options, as /v1/eco's
// create does, so -boundright reaches the session, and -window-rows sets its
// band height instead of a windowed job's.
func TestEcoSessionTakesJobOptions(t *testing.T) {
	c, err := parseArgs(flag.NewFlagSet("mclg", flag.ContinueOnError),
		[]string{"-bench", "fft_2", "-eco", "deltas.json", "-boundright", "-window-rows", "4", "-lambda", "500"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	o := c.ecoOptions()
	if !o.Core.BoundRight || o.Core.Lambda != 500 || o.WindowRows != 4 {
		t.Errorf("eco options %+v, want BoundRight, λ 500 and 4 window rows", o)
	}
	if o.Core.Beta != 0.5 || o.Core.Gamma == 0 {
		t.Errorf("eco core options %+v not resolved against the paper defaults", o.Core)
	}
}
