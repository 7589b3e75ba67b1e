package core

import (
	"math"
	"sync"

	"mclg/internal/lcp"
	"mclg/internal/sparse"
)

// StructureSig fingerprints everything about the assembled problem except
// the cell position targets: dimensions, λ, the subcell decomposition
// (owning cell, slice, row, width), and the ordering constraints (row,
// variable pair, gap). Two builds of the same design whose cells moved but
// whose per-row orderings — and hence B, E, H = Q+λEᵀE, and the Schur
// tridiagonal D — are unchanged produce equal signatures, which is the
// license for warm reuse: only the linear term P = −target differs between
// such problems. The hash mixes whole 64-bit words over the canonical field
// order, so it is stable across runs and platforms; it lives only in process
// memory and is never persisted, so the mixing function is free to change
// between versions.
func (p *Problem) StructureSig() uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, p.NumVars)
	h = fnvInt(h, p.NumCons)
	h = fnvFloat(h, p.Lambda)
	for i := range p.Subcells {
		s := &p.Subcells[i]
		h = fnvInt(h, s.Cell)
		h = fnvInt(h, s.Slice)
		h = fnvInt(h, s.Row)
		h = fnvFloat(h, s.Width)
	}
	for i := range p.Cons {
		c := &p.Cons[i]
		h = fnvInt(h, c.Row)
		h = fnvInt(h, c.Left)
		h = fnvInt(h, c.Right)
		h = fnvFloat(h, c.Gap)
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvInt folds one 64-bit word into the hash: the word is first dispersed
// with a fixed-point avalanche (the finalizer constants popularized by
// MurmurHash3) and then FNV-combined, which keeps the byte-at-a-time FNV's
// distribution quality at one multiply per word instead of eight. Structure
// signatures hash every subcell and constraint, so this is a measurable
// slice of a warm re-solve.
func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	u ^= u >> 33
	u *= 0xff51afd7ed558ccd
	u ^= u >> 33
	return (h ^ u) * fnvPrime64
}

func fnvFloat(h uint64, v float64) uint64 {
	u := math.Float64bits(v)
	u ^= u >> 33
	u *= 0xff51afd7ed558ccd
	u ^= u >> 33
	return (h ^ u) * fnvPrime64
}

// warmSig extends StructureSig with every option that shapes the cached
// splitting and LCP matrix — the Ω variant, β*, θ*, and whether AutoTheta
// may have re-derived θ*. Options that only steer the iteration (γ, ε,
// MaxIter, Workers, seeds) are deliberately excluded: they can change
// between solves without invalidating the cached factorizations.
func warmSig(p *Problem, opts *Options) uint64 {
	h := p.StructureSig()
	h = fnvFloat(h, opts.Beta)
	h = fnvFloat(h, opts.Theta)
	h = fnvFloat(h, opts.OmegaR)
	flags := 0
	if opts.AutoTheta {
		flags |= 1
	}
	if opts.PaperOmega {
		flags |= 2
	}
	if opts.ScaledOmegaX {
		flags |= 4
	}
	return fnvInt(h, flags)
}

// WarmState carries solver state across repeated legalizations of the same
// topology. When consecutive solves agree on the structure signature, the
// second solve skips LCP matrix assembly, splitting construction (the
// Schur tridiagonal, its factorization, and Bᵀ), and any AutoTheta power
// iteration, refreshes only the position-dependent head of q, and seeds
// the MMSIM from the previous solution via the modulus transform. On a
// signature mismatch the solve runs cold and the state is re-primed, so a
// WarmState is always safe to pass — it accelerates matching re-solves and
// costs one hash otherwise.
//
// A WarmState serializes the solves that share it: the embedded mutex is
// held for the full solve, because the cached splitting scratch and the
// LCP workspace admit one running solve at a time. Callers wanting
// parallel solves of different topologies use one WarmState per topology
// (the serve layer keys its warm store this way).
type WarmState struct {
	mu sync.Mutex

	sig   uint64
	valid bool

	sp *StructuredSplitting
	a  *sparse.CSR
	q  []float64

	thetaUsed  float64
	thetaBound float64

	ws    *lcp.Workspace
	prevZ []float64 // last solution, length NumVars+NumCons
	haveZ bool

	seed, wbuf []float64 // modulus-transform seed scratch

	coldIters int // iterations of the last unseeded solve on this structure
}

// NewWarmState returns an empty warm state; the first solve through it runs
// cold and primes the caches.
func NewWarmState() *WarmState { return &WarmState{} }

// ColdIterations reports the iteration count of the most recent unseeded
// solve on the cached structure — the baseline against which warm-start
// savings are measured. 0 until a cold solve has completed.
func (w *WarmState) ColdIterations() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.coldIters
}

// Reset drops all cached state, forcing the next solve cold.
func (w *WarmState) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.valid = false
	w.haveZ = false
	w.sp = nil
	w.a = nil
	w.q = nil
	w.coldIters = 0
}

// grow returns buf re-sliced (and if needed re-allocated) to length n; the
// contents are unspecified unless the storage is new.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
