package serve

import (
	"os"
	"path/filepath"
	"time"

	"mclg/internal/design"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

// solveWindowed runs a windowed job through the fault-isolated supervisor.
// When the server has a journal directory, verified window results are
// fsync'd to <JournalDir>/<job-key>.wal as they commit, so a daemon killed
// mid-job replays the completed windows on restart instead of re-solving
// them. The journal is removed once the job commits; on failure it is kept
// for the retry.
func (s *Server) solveWindowed(j *job, d *design.Design) (*report.Report, error) {
	t0 := time.Now()
	base := j.req.coreOptions()
	opts := window.Options{
		Core:          base,
		WindowRows:    j.req.WindowRows,
		HedgeQuantile: j.req.Hedge,
		ExactWindows:  j.req.Exact,
		Chaos:         s.cfg.Chaos,
	}
	if opts.WindowRows == 0 {
		opts.WindowRows = s.cfg.WindowRows // direct (non-HTTP) submissions
	}

	var journal *window.FileJournal
	if s.cfg.JournalDir != "" {
		// The journal is content-addressed twice over: the file name is the
		// job's cache key, and the header signature covers the design
		// geometry plus every result-affecting option, so a stale or
		// mismatched journal resets instead of replaying.
		if plan, perr := window.Partition(d, opts.WindowRows, window.DefaultContextRows); perr == nil {
			sig := window.Sig(d, opts.WindowRows, window.DefaultContextRows, base)
			path := filepath.Join(s.cfg.JournalDir, j.key+".wal")
			if err := os.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
				s.log.Warn("window journal disabled", "err", err)
			} else if fj, err := window.OpenFileJournal(path, sig, len(plan.Bands)); err != nil {
				s.log.Warn("window journal disabled", "path", path, "err", err)
			} else {
				journal = fj
				opts.Journal = fj
			}
		}
	}

	// A configured dispatcher (cluster coordinator role) ships window solves
	// to remote workers; the supervisor, journal, and stitch semantics are
	// identical either way, so the placement is too.
	var st *window.Stats
	var err error
	if s.cfg.Dispatcher != nil {
		st, err = s.cfg.Dispatcher.DispatchWindows(j.ctx, d, opts)
	} else {
		st, err = window.Legalize(j.ctx, d, opts)
	}
	if journal != nil {
		if err == nil {
			_ = journal.Remove()
		} else {
			_ = journal.Close() // keep the file: a resubmit resumes from it
		}
	}
	if err != nil {
		return nil, err
	}

	s.stats.windowDone(st)
	rep := report.FromDesign(d, j.req.Method, time.Since(t0))
	rep.Windows = report.WindowsFromStats(st)
	rep.CapturePlacement(d)
	return rep, nil
}
