package lcp

import "math"

// Workspace owns every per-solve buffer of the MMSIM hot loop: the modulus
// iterate pair s/sNext, the |s| and rhs scratch, the z iterate and its
// predecessor, and the w scratch the residual check needs. A solve that is
// handed a Workspace performs no per-iteration allocations; reusing one
// Workspace across a sweep of same-sized solves makes the whole sequence
// allocation-free at steady state.
//
// A Workspace is not safe for concurrent use: it belongs to exactly one
// running solve at a time. Result.Z of a solve run with an explicit
// Workspace aliases the workspace's z buffer and is only valid until the
// workspace is reused or released.
type Workspace struct {
	s, sNext, absS, rhs, z, zPrev, w []float64

	// aux and auxInts back Floats and Ints: scratch for a stage that runs
	// beside the iteration, kept here so a reused workspace serves it too.
	aux     [][]float64
	auxInts [][]int
}

// Floats returns auxiliary buffer i resized to length n with unspecified
// contents, reallocating only when it has never been that large. The
// iteration never touches auxiliary buffers, so a stage may fill them while
// a solver is paused and the solve resumes unchanged.
func (ws *Workspace) Floats(i, n int) []float64 {
	for len(ws.aux) <= i {
		ws.aux = append(ws.aux, nil)
	}
	ws.aux[i] = grow(ws.aux[i], n)
	return ws.aux[i]
}

// Ints is Floats for integer scratch.
func (ws *Workspace) Ints(i, n int) []int {
	for len(ws.auxInts) <= i {
		ws.auxInts = append(ws.auxInts, nil)
	}
	ws.auxInts[i] = grow(ws.auxInts[i], n)
	return ws.auxInts[i]
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// NewWorkspace returns a workspace sized for n-dimensional problems.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{}
	ws.Ensure(n)
	return ws
}

// Ensure grows the workspace to hold n-dimensional iterates. Shrinking never
// reallocates: buffers are re-sliced, so a workspace sized for the largest
// instance of a sweep serves every smaller one without further allocation.
func (ws *Workspace) Ensure(n int) {
	if cap(ws.s) < n {
		ws.s = make([]float64, n)
		ws.sNext = make([]float64, n)
		ws.absS = make([]float64, n)
		ws.rhs = make([]float64, n)
		ws.z = make([]float64, n)
		ws.zPrev = make([]float64, n)
		ws.w = make([]float64, n)
		return
	}
	ws.s = ws.s[:n]
	ws.sNext = ws.sNext[:n]
	ws.absS = ws.absS[:n]
	ws.rhs = ws.rhs[:n]
	ws.z = ws.z[:n]
	ws.zPrev = ws.zPrev[:n]
	ws.w = ws.w[:n]
}

// WarmSeed writes into dst the modulus-transform seed derived from a prior
// LCP solution pair (z, w = Az + q):
//
//	s = γ/2 · (z − Ω⁻¹ w)
//
// inverting the MMSIM substitution z = (|s| + s)/γ, w = (Ω/γ)(|s| − s). At an
// exact complementary solution the transform is exact — z_i > 0 gives
// s_i = γz_i/2 and w_i > 0 gives s_i = −γw_i/(2ω_i) — so seeding the next
// solve of a nearby problem starts the iteration at (numerically) the old
// fixed point. Negative components of z and w, which appear when the pair
// comes from a merely approximate solve or from a perturbed problem, are
// clamped to zero first; the MMSIM converges from any seed, so the clamp
// affects speed, never correctness. omega is the splitting's positive
// diagonal Ω (nil means identity), matching Splitting.Omega.
func WarmSeed(dst, z, w []float64, gamma float64, omega []float64) {
	if gamma == 0 {
		gamma = 1
	}
	for i := range dst {
		zi := z[i]
		if zi < 0 || math.IsNaN(zi) {
			zi = 0
		}
		wi := w[i]
		if wi < 0 || math.IsNaN(wi) {
			wi = 0
		}
		if omega != nil {
			wi /= omega[i]
		}
		dst[i] = gamma * (zi - wi) / 2
	}
}
