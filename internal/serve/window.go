package serve

import (
	"context"
	"os"
	"path/filepath"

	"mclg/internal/design"
	"mclg/internal/window"
)

// legalizeWindows is the daemon's form of window.Legalize for the job with
// cache key key. When the server has a journal directory, verified window
// results are fsync'd to <JournalDir>/<key>.wal as they commit, so a daemon
// killed mid-job replays the completed windows on restart instead of
// re-solving them. The journal is removed once the job commits; on failure
// it is kept for the retry.
func (s *Server) legalizeWindows(ctx context.Context, d *design.Design, opts window.Options, key string) (*window.Stats, error) {
	var journal *window.FileJournal
	if s.cfg.JournalDir != "" {
		// The journal is content-addressed twice over: the file name is the
		// job's cache key, and the header signature covers the design
		// geometry plus every result-affecting option, so a stale or
		// mismatched journal resets instead of replaying.
		if plan, perr := window.Partition(d, opts.WindowRows, window.DefaultContextRows); perr == nil {
			sig := window.Sig(d, opts.WindowRows, window.DefaultContextRows, opts.Core)
			path := filepath.Join(s.cfg.JournalDir, key+".wal")
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
		st, err = s.cfg.Dispatcher.DispatchWindows(ctx, d, opts)
	} else {
		st, err = window.Legalize(ctx, d, opts)
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
	return st, nil
}
