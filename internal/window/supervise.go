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
	"mclg/internal/mclgerr"
	"mclg/internal/wal"
)

// HedgeAttempt is the attempt index hedge solves run under, and so the one
// Options.SolveWindow receives for them: a remote dispatcher can tell hedges
// from retries and route them to a different worker. It is far past any retry
// budget so the chaos harness (which gates on attempt < MaxAttempt) never
// sabotages a hedge: the hedge is the clean second opinion.
const HedgeAttempt = 1 << 20

// Partition parameters, exported so callers that need the resolved values
// up front (e.g. to compute Sig for a window cache key) agree with Legalize:
// DefaultWindowRows is what a zero Options.WindowRows means, and every
// windowed run freezes DefaultContextRows rows of context.
const (
	DefaultWindowRows  = 16
	DefaultContextRows = 2
)

// exactMaxCells caps how many cells the exact post-pass re-solves jointly
// per selected window; in windows owning more, the worst-displaced
// exactMaxCells cells move and the rest freeze.
const exactMaxCells = 40

// Options configures windowed legalization.
type Options struct {
	// Core configures each window's resilient cascade (zero fields take
	// the paper defaults); Core.Workers bounds how many windows solve
	// concurrently (0 = GOMAXPROCS).
	Core core.Options

	// WindowRows is the number of owned rows per band; 0 means 16.
	WindowRows int

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

	// SolveWindow, when non-nil, replaces the local per-window solve: a
	// cluster coordinator sets it to ship window w's sub-design to a remote
	// worker. The supervisor's retry, backoff, hedging, and degradation
	// machinery apply unchanged — attempt is the retry index (HedgeAttempt
	// for hedge re-issues, so the hook can route hedges to a different
	// worker), and when every attempt fails the window still degrades to the
	// local greedy fallback. The hook MUST be result-deterministic: every
	// successful call for the same (d, plan, w) returns the same cells,
	// which is what keeps the stitched placement independent of routing,
	// retries, and hedge outcomes. Tests inject faults through it
	// (internal/faults.WindowChaos).
	SolveWindow func(ctx context.Context, d *design.Design, p *Plan, w, attempt int) (*Result, error)

	// JournalPath, when non-empty, names the job's write-ahead journal.
	// Legalize replays the windows it holds under the same Sig (of the
	// resolved Core options) instead of re-solving them, appends every
	// verified window result, and deletes the file once the placement
	// commits; on any error the file is kept, so a retry resumes from it. A
	// journal that will not open, like a failed append, is skipped: it
	// serves restarts and is never a correctness dependency.
	JournalPath string

	// ExactWindows, when positive, enables the exact refinement post-pass:
	// after stitch, the ExactWindows windows with the worst committed max
	// displacement are re-solved with the branch-and-bound legalizer
	// (internal/exact) and each window's measured optimality gap is recorded
	// in Stats.Exact. Only checker-verified strict improvements commit. The
	// pass is serial and node-budgeted, so the final placement stays
	// bit-identical for any worker count.
	ExactWindows int
	// ExactNodeBudget bounds the branch-and-bound nodes per window — the
	// deterministic analogue of a deadline. 0 means 4000.
	ExactNodeBudget int
}

func (o Options) withDefaults() Options {
	if o.WindowRows == 0 {
		o.WindowRows = DefaultWindowRows
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
	if o.ExactNodeBudget == 0 {
		o.ExactNodeBudget = 4000
	}
	return o
}

// Stats reports one windowed run; its JSON form is the "windows" section of
// the report schema. Solved + Resumed == Windows on success; Resumed counts
// journal replays, Solved counts windows solved this run.
type Stats struct {
	Windows      int `json:"total"`
	Solved       int `json:"solved"`
	Resumed      int `json:"resumed,omitempty"`
	Retries      int `json:"retries,omitempty"`
	Panics       int `json:"panics,omitempty"`
	HedgesIssued int `json:"hedges_issued,omitempty"`
	HedgesWon    int `json:"hedges_won,omitempty"`
	Degraded     int `json:"degraded,omitempty"`
	// Exact reports the exact refinement post-pass; nil unless
	// Options.ExactWindows enabled it.
	Exact *ExactStats `json:"exact,omitempty"`
}

// supervisor drives one windowed run. mu guards stats, hedging and every
// windowState.
type supervisor struct {
	d       *design.Design
	plan    *Plan
	opts    Options
	states  []windowState
	journal *wal.Log[journalRecord] // nil unless Options.JournalPath opened

	mu      sync.Mutex
	stats   Stats
	hedging bool // the hedge threshold has been crossed

	hedgeWG sync.WaitGroup
}

// windowState is one window's commit slot. Committing the window cancels
// ctx, which stops its primary attempt, its backoff wait and its hedge.
type windowState struct {
	ctx       context.Context
	cancel    context.CancelFunc
	committed *Result
	started   bool
	hedge     chan struct{} // non-nil once a hedge launched; closed when it returns
}

// Legalize partitions d into windows, solves every window under supervision
// (retry with exponential backoff, straggler hedging, degradation to the
// greedy rung), stitches the results with the deterministic Tetris pass, and
// commits the placement to d only after the whole-design legality checker
// passes. The stitched placement is bit-identical for any worker count and
// any retry/hedge/resume history.
func Legalize(ctx context.Context, d *design.Design, opts Options) (_ *Stats, err error) {
	opts = opts.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}
	plan, err := Partition(d, opts.WindowRows, DefaultContextRows)
	if err != nil {
		return nil, err
	}
	s := &supervisor{d: d, plan: plan, opts: opts, states: make([]windowState, len(plan.Bands))}
	s.stats.Windows = len(plan.Bands)
	if opts.JournalPath != "" {
		sig := Sig(d, opts.WindowRows, DefaultContextRows, core.New(opts.Core).Opts)
		if journal, recs, jerr := openJournal(opts.JournalPath, sig, len(plan.Bands)); jerr == nil {
			s.journal = journal
			defer func() {
				// Errors are dropped: a journal left behind only replays
				// verified windows of this same plan.
				if err == nil {
					_ = journal.Remove() // committed: nothing left to resume
				} else {
					_ = journal.Close() // kept for the retry
				}
			}()
			for _, r := range recs {
				s.states[r.W].committed = &Result{Window: r.W, Cells: r.Cells}
			}
		}
	}
	// Every window's context descends from run, so returning cancels them all.
	run, stop := context.WithCancel(ctx)
	defer stop()
	// A journaled window is a commit without a solve; the rest queue up.
	pending := make(chan int, len(plan.Bands))
	for i := range s.states {
		st := &s.states[i]
		st.ctx, st.cancel = context.WithCancel(run)
		if st.committed != nil {
			s.stats.Resumed++
			continue
		}
		pending <- i
	}
	close(pending)

	workers := opts.Core.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for range min(workers, len(pending)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wi := range pending {
				s.runPrimary(wi)
			}
		}()
	}
	wg.Wait()
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

// attempt runs one solve attempt of window wi under the window's context
// with panic containment and the per-attempt deadline.
func (s *supervisor) attempt(wi, attemptIdx int) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, mclgerr.Stage("window", mclgerr.Panicked(r))
		}
	}()
	ctx := s.states[wi].ctx
	if s.opts.WindowTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.WindowTimeout)
		defer cancel()
	}
	if s.opts.SolveWindow != nil {
		return s.opts.SolveWindow(ctx, s.d, s.plan, wi, attemptIdx)
	}
	sub, idx := BuildSub(s.d, s.plan, &s.plan.Bands[wi])
	return SolveSub(ctx, sub, idx, wi, s.opts.Core)
}

// runPrimary is the supervised solve of one window: bounded retries with
// exponential backoff, then (if a hedge is in flight) deferring to the
// hedge, then degradation. Each step ends as soon as the window commits.
func (s *supervisor) runPrimary(wi int) {
	st := &s.states[wi]
	s.mu.Lock()
	st.started = true
	if s.hedging {
		// The threshold was crossed before this window started (possible
		// when the queue is long); hedge it from the start.
		s.launchHedge(wi)
	}
	s.mu.Unlock()

	for a := 0; a <= s.opts.MaxRetries; a++ {
		if a > 0 {
			s.count(&s.stats.Retries)
			backoff := time.Duration(float64(s.opts.RetryBackoff) * math.Pow(2, float64(a-1)))
			select {
			case <-time.After(backoff):
			case <-st.ctx.Done():
				return
			}
		}
		res, err := s.attempt(wi, a)
		if err == nil {
			s.commit(wi, res, false)
			return
		}
		if errors.Is(err, mclgerr.ErrPanic) {
			s.count(&s.stats.Panics)
		}
		if st.ctx.Err() != nil {
			return
		}
	}

	// Retries exhausted. If a hedge is racing, its clean result is still
	// the preferred outcome: wait for it before degrading.
	s.mu.Lock()
	hedge := st.hedge
	s.mu.Unlock()
	if hedge != nil {
		select {
		case <-hedge:
		case <-st.ctx.Done():
		}
	}
	if st.ctx.Err() != nil {
		return
	}
	s.commit(wi, degradeSub(st.ctx, s.d, s.plan, &s.plan.Bands[wi]), false)
}

// launchHedge re-issues window wi on a spare goroutine if it has started, is
// uncommitted, has no hedge yet and its context is live. The caller holds
// s.mu.
func (s *supervisor) launchHedge(wi int) {
	st := &s.states[wi]
	if !st.started || st.committed != nil || st.hedge != nil || st.ctx.Err() != nil {
		return
	}
	done := make(chan struct{})
	st.hedge = done
	s.stats.HedgesIssued++
	s.hedgeWG.Add(1)
	go func() {
		defer s.hedgeWG.Done()
		defer close(done)
		if res, err := s.attempt(wi, HedgeAttempt); err == nil {
			s.commit(wi, res, true)
		}
	}()
}

// commit records the first verified result for a window, cancels the
// window's context (stopping its other attempts), journals the result, and,
// when the completion count crosses the hedge threshold, hedges every
// straggler still in flight. Later results for the window are dropped; both
// attempts compute identical placements.
func (s *supervisor) commit(wi int, res *Result, fromHedge bool) {
	st := &s.states[wi]
	s.mu.Lock()
	if st.committed != nil {
		s.mu.Unlock()
		return
	}
	st.committed = res
	st.cancel()
	s.stats.Solved++
	if res.Degraded {
		s.stats.Degraded++
	}
	if fromHedge {
		s.stats.HedgesWon++
	}
	done := s.stats.Solved + s.stats.Resumed
	if !s.hedging && s.opts.HedgeQuantile > 0 && float64(done) >= s.opts.HedgeQuantile*float64(s.stats.Windows) {
		s.hedging = true
		for i := range s.states {
			s.launchHedge(i)
		}
	}
	s.mu.Unlock()

	if s.journal != nil && !res.Degraded {
		_ = s.journal.Append(newRecord(wi, res.Cells)) // a failed append only costs the restart
	}
}

// count increments one of the supervisor's counters.
func (s *supervisor) count(n *int) {
	s.mu.Lock()
	*n++
	s.mu.Unlock()
}
