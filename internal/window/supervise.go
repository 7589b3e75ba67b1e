package window

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/faults"
	"mclg/internal/mclgerr"
)

// hedgeAttempt is the attempt index hedge solves run under. It is far past
// any retry budget so the chaos harness (which gates on attempt < MaxAttempt)
// never sabotages a hedge: the hedge is the clean second opinion.
const hedgeAttempt = 1 << 20

// Default partition parameters, exported so callers that need the resolved
// values up front (e.g. to compute Sig for a journal before Legalize runs)
// agree with Options.withDefaults.
const (
	DefaultWindowRows  = 16
	DefaultContextRows = 2
)

// Options configures windowed legalization.
type Options struct {
	// Cascade configures the per-window resilient cascade. Its Base carries
	// the solver options; Base.Workers bounds how many windows solve
	// concurrently (0 = GOMAXPROCS).
	Cascade core.ResilientOptions

	// WindowRows is the number of owned rows per band; 0 means 16.
	WindowRows int
	// ContextRows is the frozen-context margin in rows; 0 means 2.
	ContextRows int

	// WindowTimeout is the per-attempt deadline; 0 means 2 minutes,
	// negative disables the deadline.
	WindowTimeout time.Duration
	// MaxRetries is how many supervised retries follow a failed first
	// attempt; 0 means 2, negative disables retries.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between attempts
	// (base, 2×base, 4×base, …); 0 means 5ms.
	RetryBackoff time.Duration

	// HedgeQuantile, in (0,1], enables straggler hedging: once that
	// fraction of windows has completed, every still-running window is
	// re-issued once on a spare worker and the first verified-legal result
	// wins. 0 disables hedging. Hedged and primary solves compute the same
	// deterministic result, so who wins never changes the placement.
	HedgeQuantile float64

	// Chaos, when non-nil, injects deterministic window-granular faults
	// (panics, stalls, NaN poisoning) into solve attempts. Test-only.
	Chaos *faults.WindowChaos

	// SolveWindow, when non-nil, replaces the local per-window solve: a
	// cluster coordinator sets it to ship window w's sub-design to a remote
	// worker. The supervisor's retry, backoff, hedging, and degradation
	// machinery apply unchanged — attempt is the retry index (HedgeAttempt
	// for hedge re-issues, so the hook can route hedges to a different
	// worker), and when every attempt fails the window still degrades to the
	// local greedy fallback. The hook MUST be result-deterministic: every
	// successful call for the same (d, plan, w) returns the same cells,
	// which is what keeps the stitched placement independent of routing,
	// retries, and hedge outcomes. Chaos injection is bypassed for hooked
	// solves (chaos sabotages local attempts only).
	SolveWindow func(ctx context.Context, d *design.Design, p *Plan, w, attempt int) (*Result, error)

	// Journal, when non-nil, records every verified window result and
	// replays previously recorded windows instead of re-solving them.
	Journal Journal

	// ExactWindows, when positive, enables the exact refinement post-pass:
	// after stitch, the ExactWindows windows with the worst committed max
	// displacement are re-solved with the branch-and-bound legalizer
	// (internal/exact) and each window's measured optimality gap is recorded
	// in Stats.Exact. Only checker-verified strict improvements commit. The
	// pass is serial and node-budgeted, so the final placement stays
	// bit-identical for any worker count.
	ExactWindows int
	// ExactMaxCells caps how many cells are re-solved jointly per selected
	// window; in windows owning more, the worst-displaced ExactMaxCells
	// cells move and the rest freeze. 0 means 40.
	ExactMaxCells int
	// ExactNodeBudget bounds the branch-and-bound nodes per window — the
	// deterministic analogue of a deadline. 0 means 4000.
	ExactNodeBudget int
}

func (o Options) withDefaults() Options {
	if o.WindowRows == 0 {
		o.WindowRows = DefaultWindowRows
	}
	if o.ContextRows == 0 {
		o.ContextRows = DefaultContextRows
	}
	if o.WindowTimeout == 0 {
		o.WindowTimeout = 2 * time.Minute
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.ExactMaxCells == 0 {
		o.ExactMaxCells = 40
	}
	if o.ExactNodeBudget == 0 {
		o.ExactNodeBudget = 4000
	}
	return o
}

// Stats reports one windowed run. Solved + Resumed == Windows on success;
// Resumed counts journal replays, Solved counts windows solved this run.
type Stats struct {
	Windows      int
	Solved       int
	Resumed      int
	Retries      int
	Panics       int
	HedgesIssued int
	HedgesWon    int
	Degraded     int
	// Exact reports the exact refinement post-pass; nil unless
	// Options.ExactWindows enabled it.
	Exact *ExactStats
}

// supervisor drives one windowed run.
type supervisor struct {
	d    *design.Design
	plan *Plan
	opts Options
	ctx  context.Context // the job context; hedges are bounded by it

	mu        sync.Mutex
	stats     Stats
	completed int
	hedging   bool // threshold crossed; new commits no longer re-check

	hedgeWG sync.WaitGroup
	states  []*windowState
}

type windowState struct {
	mu        sync.Mutex
	committed *Result
	started   bool
	hedged    bool
	hedgeDone chan struct{} // closed when the hedge attempt finishes
	cancels   []context.CancelFunc
}

// Legalize partitions d into windows, solves every window under supervision
// (retry with exponential backoff, straggler hedging, degradation to the
// greedy rung), stitches the results with the deterministic Tetris pass, and
// commits the placement to d only after the whole-design legality checker
// passes. The stitched placement is bit-identical for any worker count and
// any retry/hedge/resume history.
func Legalize(ctx context.Context, d *design.Design, opts Options) (*Stats, error) {
	opts = opts.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}
	plan, err := Partition(d, opts.WindowRows, opts.ContextRows)
	if err != nil {
		return nil, err
	}
	s := &supervisor{d: d, plan: plan, opts: opts, ctx: ctx}
	s.stats.Windows = len(plan.Bands)
	s.states = make([]*windowState, len(plan.Bands))
	for i := range s.states {
		s.states[i] = &windowState{hedgeDone: make(chan struct{})}
	}

	// Replay journaled windows before solving anything: a resumed window is
	// a commit without a solve.
	if opts.Journal != nil {
		for i := range plan.Bands {
			if cells, ok := opts.Journal.Lookup(i); ok {
				s.states[i].committed = &Result{Window: i, Cells: cells}
				s.mu.Lock()
				s.completed++
				s.stats.Resumed++
				s.mu.Unlock()
			}
		}
	}

	workers := opts.Cascade.Base.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var pending []int
	for i := range plan.Bands {
		if s.states[i].committed == nil {
			pending = append(pending, i)
		}
	}
	if len(pending) > 0 {
		var wg sync.WaitGroup
		var next int
		var nmu sync.Mutex
		n := workers
		if n > len(pending) {
			n = len(pending)
		}
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					nmu.Lock()
					k := next
					next++
					nmu.Unlock()
					if k >= len(pending) {
						return
					}
					s.runPrimary(ctx, pending[k])
				}
			}()
		}
		wg.Wait()
	}
	// Losing hedges are canceled at commit time, but their goroutines must
	// fully exit before the run returns: no goroutine outlives Legalize.
	s.hedgeWG.Wait()

	if err := mclgerr.FromContext(ctx); err != nil {
		return nil, err
	}
	results := make([]*Result, len(plan.Bands))
	for i, st := range s.states {
		if st.committed == nil {
			return nil, mclgerr.Stage("window", mclgerr.ErrUnplacedCells)
		}
		results[i] = st.committed
	}
	if err := stitch(ctx, d, results); err != nil {
		return nil, err
	}
	if opts.ExactWindows > 0 {
		ex, err := refineExact(ctx, d, plan, opts)
		if err != nil {
			return nil, err
		}
		s.stats.Exact = ex
	}
	st := s.stats
	return &st, nil
}

// attempt runs one solve attempt of window wi with panic containment, the
// per-attempt deadline, and chaos injection.
func (s *supervisor) attempt(ctx context.Context, wi, attemptIdx int) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, mclgerr.Stage("window", mclgerr.Panicked(r))
		}
	}()
	actx := ctx
	if s.opts.WindowTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.opts.WindowTimeout)
		defer cancel()
	}
	s.states[wi].addCancelContext(&actx)
	if s.opts.SolveWindow != nil {
		return s.opts.SolveWindow(actx, s.d, s.plan, wi, attemptIdx)
	}
	b := &s.plan.Bands[wi]
	sub, idx := buildSub(s.d, s.plan, b)
	if s.opts.Chaos != nil {
		if err := s.opts.Chaos.Inject(actx, wi, attemptIdx, func() { poisonSub(sub) }); err != nil {
			return nil, mclgerr.Canceled(err)
		}
	}
	return solveSub(actx, sub, idx, b, s.opts.Cascade)
}

// addCancelContext wraps *pctx with a cancel the commit path can fire, so a
// window's losing attempts (primary vs hedge) stop promptly once a result is
// committed.
func (st *windowState) addCancelContext(pctx *context.Context) {
	c, cancel := context.WithCancel(*pctx)
	*pctx = c
	st.mu.Lock()
	if st.committed != nil {
		cancel()
	} else {
		st.cancels = append(st.cancels, cancel)
	}
	st.mu.Unlock()
}

// runPrimary is the supervised solve of one window: bounded retries with
// exponential backoff, then (if a hedge is in flight) deferring to the
// hedge, then degradation. Degradation is reached only when every attempt —
// primary and hedge — has failed, so whether a run degrades is deterministic
// even though attempt scheduling is not.
func (s *supervisor) runPrimary(ctx context.Context, wi int) {
	st := s.states[wi]
	st.mu.Lock()
	st.started = true
	launchHedge := s.hedgingActive() && !st.hedged && st.committed == nil
	if launchHedge {
		st.hedged = true
	}
	st.mu.Unlock()
	if launchHedge {
		// The hedge window opened before this straggler even started
		// (possible when the queue is long); run the hedge alongside.
		s.hedgeWG.Add(1)
		go s.runHedge(ctx, wi)
	} else {
		defer st.closeHedgeIfUnlaunched()
	}

	attempts := 1 + s.opts.MaxRetries
	for a := 0; a < attempts; a++ {
		if st.isCommitted() || ctx.Err() != nil {
			return
		}
		if a > 0 {
			s.addRetry()
			backoff := time.Duration(float64(s.opts.RetryBackoff) * math.Pow(2, float64(a-1)))
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
		}
		res, err := s.attempt(ctx, wi, a)
		if err == nil {
			s.commit(wi, res, false)
			return
		}
		if errors.Is(err, mclgerr.ErrPanic) {
			s.addPanic()
		}
		if ctx.Err() != nil {
			return
		}
	}

	// Retries exhausted. If a hedge is racing, its clean result is still
	// the preferred outcome — wait for it before degrading.
	if st.hedgeLaunched() {
		select {
		case <-st.hedgeDone:
		case <-ctx.Done():
			return
		}
		if st.isCommitted() {
			return
		}
	}
	if ctx.Err() != nil {
		return
	}
	s.commit(wi, degradeSub(ctx, s.d, s.plan, &s.plan.Bands[wi]), false)
}

// runHedge runs the clean re-issue of a straggling window. First verified
// result (hedge or primary) wins; both compute identical placements.
func (s *supervisor) runHedge(ctx context.Context, wi int) {
	st := s.states[wi]
	defer s.hedgeWG.Done()
	defer close(st.hedgeDone)
	s.addHedgeIssued()
	if st.isCommitted() || ctx.Err() != nil {
		return
	}
	res, err := s.attempt(ctx, wi, hedgeAttempt)
	if err != nil {
		return
	}
	s.commit(wi, res, true)
}

// commit records the first verified result for a window, cancels the
// window's other in-flight attempts, journals the result, and — when the
// completion count crosses the hedge threshold — launches hedges for every
// straggler still in flight.
func (s *supervisor) commit(wi int, res *Result, fromHedge bool) {
	st := s.states[wi]
	st.mu.Lock()
	if st.committed != nil {
		st.mu.Unlock()
		return
	}
	st.committed = res
	cancels := st.cancels
	st.cancels = nil
	st.mu.Unlock()
	for _, c := range cancels {
		c()
	}

	if s.opts.Journal != nil && !res.Degraded {
		// Journal errors are non-fatal: the journal is an optimization for
		// restart, never a correctness dependency.
		_ = s.opts.Journal.Record(wi, res.Cells)
	}

	s.mu.Lock()
	s.completed++
	s.stats.Solved++
	if res.Degraded {
		s.stats.Degraded++
	}
	if fromHedge {
		s.stats.HedgesWon++
	}
	crossed := !s.hedging && s.opts.HedgeQuantile > 0 &&
		float64(s.completed) >= s.opts.HedgeQuantile*float64(s.stats.Windows)
	if crossed {
		s.hedging = true
	}
	s.mu.Unlock()

	if crossed {
		for i, other := range s.states {
			other.mu.Lock()
			launch := other.started && other.committed == nil && !other.hedged
			if launch {
				other.hedged = true
			}
			other.mu.Unlock()
			if launch {
				s.hedgeWG.Add(1)
				go s.runHedge(s.ctx, i)
			}
		}
	}
}

func (s *supervisor) hedgingActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hedging
}

func (s *supervisor) addRetry()       { s.mu.Lock(); s.stats.Retries++; s.mu.Unlock() }
func (s *supervisor) addPanic()       { s.mu.Lock(); s.stats.Panics++; s.mu.Unlock() }
func (s *supervisor) addHedgeIssued() { s.mu.Lock(); s.stats.HedgesIssued++; s.mu.Unlock() }

func (st *windowState) isCommitted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.committed != nil
}

func (st *windowState) hedgeLaunched() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hedged
}

// closeHedgeIfUnlaunched closes hedgeDone for windows that never hedged, so
// nothing can block on it after the primary returns.
func (st *windowState) closeHedgeIfUnlaunched() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.hedged {
		st.hedged = true // prevents a late hedge from double-closing
		select {
		case <-st.hedgeDone:
		default:
			close(st.hedgeDone)
		}
	}
}
