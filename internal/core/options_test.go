package core

import (
	"errors"
	"math"
	"testing"

	"mclg/internal/mclgerr"
)

func TestOptionsValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"negative-lambda", Options{Lambda: -1}},
		{"nan-lambda", Options{Lambda: math.NaN()}},
		{"beta-at-2", Options{Beta: 2}},
		{"beta-above-2", Options{Beta: 3.5}},
		{"negative-beta", Options{Beta: -0.5}},
		{"inf-theta", Options{Theta: math.Inf(1)}},
		{"negative-theta", Options{Theta: -1}},
		{"negative-gamma", Options{Gamma: -2}},
		{"negative-eps", Options{Eps: -1e-6}},
		{"nan-eps", Options{Eps: math.NaN()}},
		{"negative-maxiter", Options{MaxIter: -1}},
		{"negative-omegar", Options{OmegaR: -1}},
		{"nan-residualtol", Options{ResidualTol: math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatalf("options %+v accepted", tc.opts)
			}
			if !errors.Is(err, mclgerr.ErrInvalidInput) {
				t.Fatalf("error %v does not match ErrInvalidInput", err)
			}
		})
	}
}

func TestOptionsValidateAcceptsDefaults(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	// The zero value is what New fills with defaults; Validate runs on the
	// post-default options, but the zero value itself must also pass so the
	// ResilientLegalizer can validate user-supplied partial options.
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if err := New(Options{Beta: 1.99}).Opts.Validate(); err != nil {
		t.Fatalf("in-range Beta rejected: %v", err)
	}
}

// New must surface nonsense through LegalizeContext before any stage runs.
func TestNewRejectsNonsenseAtLegalize(t *testing.T) {
	for _, opts := range []Options{
		{Lambda: -5},
		{Eps: -1},
		{Beta: 2},
	} {
		_, err := New(opts).Legalize(nil)
		if !errors.Is(err, mclgerr.ErrInvalidInput) {
			t.Fatalf("options %+v: error %v, want ErrInvalidInput", opts, err)
		}
	}
}
