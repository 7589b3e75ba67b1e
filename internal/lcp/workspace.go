package lcp

import "mclg/internal/recycle"

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
	ws.aux[i] = recycle.Grow(ws.aux[i], n)
	return ws.aux[i]
}

// Ints is Floats for integer scratch.
func (ws *Workspace) Ints(i, n int) []int {
	for len(ws.auxInts) <= i {
		ws.auxInts = append(ws.auxInts, nil)
	}
	ws.auxInts[i] = recycle.Grow(ws.auxInts[i], n)
	return ws.auxInts[i]
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
