package window

import (
	"context"

	"mclg/internal/core"
	"mclg/internal/design"
)

// This file is the remote-solve surface: the exported handles a cluster
// coordinator needs to ship individual windows to worker daemons while
// reusing the supervised-solve machinery (retry, backoff, hedging,
// degradation, deterministic stitch) unchanged. The determinism contract is
// preserved because a window's sub-design is a pure function of the input
// design and the plan — wherever it is solved, the result is bit-identical.

// HedgeAttempt is the attempt index Options.SolveWindow receives for hedge
// re-issues, so a remote dispatcher can tell hedges from retries and route
// them to a different worker.
const HedgeAttempt = hedgeAttempt

// BuildSub materializes band b of plan p as an independent sub-design. The
// returned idx maps sub cell index to full-design cell ID for owned
// (movable) cells and is -1 for frozen context cells. The sub-design carries
// no nets; window solves are displacement-driven.
func BuildSub(d *design.Design, p *Plan, b *Band) (*design.Design, []int) {
	return buildSub(d, p, b)
}

// SolveSubDesign runs one clean solve of a sub-design built by BuildSub
// (locally or on a remote worker after decoding it from the wire) through
// the resilient cascade and returns the owned-cell positions as the result
// for window windowIndex. The cascade verifies window-level legality before
// committing.
func SolveSubDesign(ctx context.Context, sub *design.Design, idx []int, windowIndex int, opts core.Options) (*Result, error) {
	b := &Band{Index: windowIndex}
	return solveSub(ctx, sub, idx, b, opts)
}
