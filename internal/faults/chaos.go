package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"

	"mclg/internal/design"
)

// WindowFault enumerates the fault a chaos harness injects into one window
// solve attempt.
type WindowFault int

const (
	// FaultNone leaves the attempt untouched.
	FaultNone WindowFault = iota
	// FaultPanic makes the window solver panic mid-solve, exercising the
	// supervision layer's recover→mclgerr path.
	FaultPanic
	// FaultStall blocks the attempt until its context is canceled,
	// exercising the per-window deadline and straggler hedging.
	FaultStall
	// FaultNaN poisons the window's global positions with NaN before the
	// solve, exercising typed validation rejection and retry.
	FaultNaN
)

func (f WindowFault) String() string {
	switch f {
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	case FaultNaN:
		return "nan"
	default:
		return "none"
	}
}

// WindowChaos is a deterministic window-granular fault injector. Whether a
// given (window, attempt) pair is faulted — and with which fault — is a pure
// function of (Seed, window, attempt), so a chaos run is exactly
// reproducible regardless of scheduling, worker count, or wall-clock.
//
// Faults are transient by default (MaxAttempt 0 means 1): only attempt 0 of
// a window is sabotaged, so the supervised retry re-solves the window
// cleanly and the final placement is bit-identical to the fault-free run —
// which is precisely the containment property the chaos suite asserts.
// Raising MaxAttempt makes faults persistent across that many attempts,
// driving windows into the degradation rung.
type WindowChaos struct {
	// Seed selects which windows are faulted.
	Seed uint64
	// PanicFrac, StallFrac, NaNFrac are the fractions of windows receiving
	// each fault, in [0,1]; they partition the unit interval, so their sum
	// is the total faulted fraction and must be ≤ 1.
	PanicFrac float64
	StallFrac float64
	NaNFrac   float64
	// MaxAttempt bounds the attempts that see the fault: attempts with
	// index < MaxAttempt are sabotaged, later retries run clean. 0 means 1
	// (fault only the first attempt).
	MaxAttempt int

	// Injected counts faults actually fired, for test assertions that the
	// harness was live.
	Injected atomic.Uint64
}

// Fault reports the fault to inject into the given attempt of the given
// window. Deterministic in (Seed, window, attempt); safe for concurrent use.
func (c *WindowChaos) Fault(window, attempt int) WindowFault {
	if c == nil {
		return FaultNone
	}
	maxAttempt := c.MaxAttempt
	if maxAttempt <= 0 {
		maxAttempt = 1
	}
	if attempt >= maxAttempt {
		return FaultNone
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(c.Seed >> (8 * i))
		buf[8+i] = byte(uint64(window) >> (8 * i))
	}
	h.Write(buf[:])
	u := float64(h.Sum64()>>11) / float64(1<<53) // uniform in [0,1)
	switch {
	case u < c.PanicFrac:
		return FaultPanic
	case u < c.PanicFrac+c.StallFrac:
		return FaultStall
	case u < c.PanicFrac+c.StallFrac+c.NaNFrac:
		return FaultNaN
	default:
		return FaultNone
	}
}

// Inject fires the selected fault inside a window solve attempt whose
// private sub-design is sub. FaultPanic panics; FaultStall blocks until ctx
// is done and returns its cancellation error; FaultNaN gives sub's first
// movable cell a NaN global position and returns nil, so the solve rejects
// the sub-design and a retry rebuilds a clean one; FaultNone returns nil.
func (c *WindowChaos) Inject(ctx context.Context, window, attempt int, sub *design.Design) error {
	switch c.Fault(window, attempt) {
	case FaultPanic:
		c.Injected.Add(1)
		panic(fmt.Sprintf("chaos: injected panic in window %d attempt %d", window, attempt))
	case FaultStall:
		c.Injected.Add(1)
		<-ctx.Done()
		return ctx.Err()
	case FaultNaN:
		c.Injected.Add(1)
		for _, cell := range sub.Cells {
			if !cell.Fixed {
				cell.GX = math.NaN()
				cell.X = cell.GX
				break
			}
		}
	}
	return nil
}
