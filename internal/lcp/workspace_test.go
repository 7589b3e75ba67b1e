package lcp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mclg/internal/mclgerr"
	"mclg/internal/sparse"
)

func TestMMSIMS0LengthValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	p, _ := spdProblem(rng, 5)
	sp, err := NewDiagSplitting(p.A, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 6, 50} {
		_, err := MMSIM(p, sp, Options{S0: make([]float64, n)})
		if err == nil {
			t.Fatalf("S0 of length %d accepted for a 5-dim problem", n)
		}
		if !errors.Is(err, mclgerr.ErrInvalidInput) {
			t.Errorf("S0 length %d: error %v does not match ErrInvalidInput", n, err)
		}
	}
	// Exact length and nil both remain accepted.
	if _, err := MMSIM(p, sp, Options{S0: make([]float64, 5)}); err != nil {
		t.Errorf("exact-length S0 rejected: %v", err)
	}
	if _, err := MMSIM(p, sp, Options{}); err != nil {
		t.Errorf("nil S0 rejected: %v", err)
	}
}

// TestWorkspaceReuseMatchesPooled pins that an explicit, reused workspace
// changes nothing about the iterates: the same problem solved through one
// workspace twice in a row — and on a fresh workspace of the solver's own —
// yields bit-identical z, and a workspace sized for a larger instance
// serves a smaller one (the Ensure shrink path) without disturbing the
// result.
func TestWorkspaceReuseMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	big, _ := spdProblem(rng, 24)
	small, _ := spdProblem(rng, 7)
	opts := Options{Eps: 1e-10, MaxIter: 100000}

	solve := func(p *Problem, ws *Workspace) *Result {
		sp, err := NewDiagSplitting(p.A, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Workspace = ws
		res, err := MMSIM(p, sp, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res
	}

	ws := NewWorkspace(24)
	for name, p := range map[string]*Problem{"big": big, "small": small} {
		own := solve(p, nil)
		first := append([]float64(nil), solve(p, ws).Z...)
		second := solve(p, ws) // dirty buffers from the previous run
		if len(first) != p.N() || len(second.Z) != p.N() {
			t.Fatalf("%s: Z length %d/%d, want %d", name, len(first), len(second.Z), p.N())
		}
		for i := range first {
			if first[i] != own.Z[i] || second.Z[i] != own.Z[i] {
				t.Fatalf("%s: z[%d] own workspace %g, reused %g / %g — reuse changed the result",
					name, i, own.Z[i], first[i], second.Z[i])
			}
		}
	}
}

// TestResultZDetachedFromPool pins the ownership contract: a solve run
// without a Workspace owns its buffers, so its Result.Z must survive later
// solves.
func TestResultZDetachedFromPool(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	p, _ := spdProblem(rng, 12)
	sp, err := NewDiagSplitting(p.A, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MMSIM(p, sp, Options{Eps: 1e-10, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), res.Z...)
	// Solves of a different problem.
	q, _ := spdProblem(rng, 12)
	spq, _ := NewDiagSplitting(q.A, 0.9)
	for i := 0; i < 4; i++ {
		if _, err := MMSIM(q, spq, Options{Eps: 1e-10, MaxIter: 100000}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if res.Z[i] != want[i] {
			t.Fatalf("Result.Z[%d] changed from %g to %g after later solves", i, want[i], res.Z[i])
		}
	}
}

// TestSolverStepZeroAllocs is the steady-state allocation gate: after
// NewSolver binds an explicit workspace, each MMSIM iteration must perform
// zero heap allocations. The count is taken with stepAllocs rather than
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 and so could hide an
// allocation that only happens when more than one core is available.
func TestSolverStepZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	p, _ := spdProblem(rng, 64)
	sp, err := NewDiagSplitting(p.A, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(p.N())
	sv, err := NewSolver(p, sp, Options{Workspace: ws, MaxIter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	// Warm up once so lazy runtime state (e.g. stack growth) settles.
	if _, err := sv.Step(); err != nil {
		t.Fatal(err)
	}
	allocs, err := stepAllocs(sv, 100)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("MMSIM Step allocated %d objects per iteration, want 0", allocs)
	}
}

// stepAllocs returns the heap allocations per solver step over runs steps,
// read from the process-wide malloc counter at the caller's GOMAXPROCS and
// rounded down to an integer as testing.AllocsPerRun does, so a stray
// runtime allocation during the loop does not count as one per step.
func stepAllocs(sv *Solver, runs int) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := sv.Step(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs), nil
}

// TestSolverRunMatchesMMSIM pins that the stepping API and the one-shot
// entry point walk the same iterate sequence.
func TestSolverRunMatchesMMSIM(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	p, _ := spdProblem(rng, 16)
	sp, err := NewDiagSplitting(p.A, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Eps: 1e-10, MaxIter: 100000}
	whole, err := MMSIM(p, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Workspace = NewWorkspace(p.N())
	sv, err := NewSolver(p, sp, o)
	if err != nil {
		t.Fatal(err)
	}
	for sv.Iterations() < whole.Iterations {
		if _, err := sv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, z := range sv.Z() {
		if z != whole.Z[i] {
			t.Fatalf("z[%d] stepped %g vs run %g", i, z, whole.Z[i])
		}
	}
}

func TestWorkspaceEnsure(t *testing.T) {
	ws := NewWorkspace(10)
	s := &ws.s[0]
	ws.Ensure(4)
	if len(ws.z) != 4 || len(ws.w) != 4 {
		t.Fatalf("shrink: lengths %d/%d, want 4", len(ws.z), len(ws.w))
	}
	if &ws.s[0] != s {
		t.Error("shrink reallocated the workspace")
	}
	ws.Ensure(10)
	if &ws.s[0] != s {
		t.Error("regrow within capacity reallocated the workspace")
	}
	ws.Ensure(11)
	if len(ws.sNext) != 11 || len(ws.zPrev) != 11 {
		t.Fatalf("grow: lengths %d/%d, want 11", len(ws.sNext), len(ws.zPrev))
	}
}

func TestZeroDimensionSolve(t *testing.T) {
	p := &Problem{A: &sparse.CSR{Rows: 0, Cols: 0, RowPtr: []int{0}}, Q: nil}
	sp, err := NewDiagSplitting(p.A, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MMSIM(p, sp, Options{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Z) != 0 {
		t.Errorf("zero-dim Z has length %d", len(res.Z))
	}
}

// A solve paused by RunTo and then resumed reproduces the uninterrupted solve
// bit for bit.
func TestRunToPauseResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p, _ := spdProblem(rng, 30)
	sp, err := NewDiagSplitting(p.A, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Eps: 1e-10, MaxIter: 100000, ResidualTol: 1e-9}
	want, err := MMSIM(p, sp, opts)
	if err != nil || !want.Converged || want.Iterations <= 7 {
		t.Fatalf("reference solve: %+v, %v", want, err)
	}
	opts.Workspace = NewWorkspace(p.N())
	sv, err := NewSolver(p, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for _, limit := range []int{0, 5, 7} {
		res, err := sv.RunTo(context.Background(), limit)
		if err != nil || !res.Paused || res.Z != nil || res.Iterations != limit {
			t.Fatalf("RunTo(%d): %+v, %v", limit, res, err)
		}
	}
	got, err := sv.Run(context.Background())
	if err != nil || got.Paused || got.Iterations != want.Iterations {
		t.Fatalf("resumed: %+v, %v; want %d iterations", got, err, want.Iterations)
	}
	for i := range want.Z {
		if math.Float64bits(got.Z[i]) != math.Float64bits(want.Z[i]) {
			t.Fatalf("z[%d] = %v after pausing, %v without", i, got.Z[i], want.Z[i])
		}
	}
}
