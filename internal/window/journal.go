package window

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"mclg/internal/wal"
)

// Journal persists verified window results so a crashed or killed job can
// resume by replaying completed windows instead of re-solving them. Every
// recorded result is checker-verified within its window; degraded results
// are never journaled.
type Journal interface {
	// Lookup returns the recorded owned-cell positions for a window.
	Lookup(window int) ([]CellPos, bool)
	// Record durably persists a window's verified result.
	Record(window int, cells []CellPos) error
}

// journalHeader is the first line of a journal file. Sig content-addresses
// the plan (design geometry + global positions + window/solver parameters):
// records are replayed only under an identical signature, so a changed
// input or configuration silently invalidates the journal instead of
// resurrecting stale placements.
type journalHeader struct {
	V       int    `json:"v"`
	Sig     string `json:"sig"`
	Windows int    `json:"windows"`
}

// journalRecord is one appended window result. Sum is a FNV-1a checksum of
// the record's content; a record whose checksum does not match (a torn
// write from a crash mid-append) and everything after it is discarded on
// replay.
type journalRecord struct {
	W     int       `json:"w"`
	Cells []CellPos `json:"cells"`
	Sum   string    `json:"sum"`
}

func recordSum(w int, cells []CellPos) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(w))
	for _, c := range cells {
		put(uint64(c.ID))
		put(math.Float64bits(c.X))
		put(math.Float64bits(c.Y))
		if c.Flipped {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// FileJournal is the write-ahead implementation of Journal on an
// append-only, fsync'd JSON-lines log (internal/wal): a header, then one
// record per completed window. Record returns only after its line is
// fsync'd, so every acknowledged window survives a process kill; a torn
// final line from a crash mid-write is detected by checksum and ignored.
type FileJournal struct {
	log       *wal.Log[journalRecord]
	mu        sync.Mutex
	completed map[int][]CellPos
	resumed   int
}

// OpenFileJournal opens (or creates) the journal at path for a plan with
// the given signature and window count. An existing file with a matching
// header has its intact records loaded for replay; a missing, unreadable,
// torn, or mismatching file is reset to a fresh header.
func OpenFileJournal(path string, sig uint64, windows int) (*FileJournal, error) {
	hdr := journalHeader{V: 1, Sig: fmt.Sprintf("%016x", sig), Windows: windows}
	log, recs, err := wal.Open(path, "journal", hdr,
		func(h journalHeader) bool { return h == hdr },
		func(_ int, r journalRecord) bool {
			return r.W >= 0 && r.W < windows && r.Sum == recordSum(r.W, r.Cells)
		})
	if err != nil {
		return nil, err
	}
	j := &FileJournal{log: log, completed: make(map[int][]CellPos, len(recs))}
	for _, r := range recs {
		j.completed[r.W] = r.Cells
	}
	j.resumed = len(j.completed)
	return j, nil
}

// Lookup implements Journal.
func (j *FileJournal) Lookup(window int) ([]CellPos, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cells, ok := j.completed[window]
	return cells, ok
}

// Record implements Journal: append one record line, flush, fsync.
func (j *FileJournal) Record(window int, cells []CellPos) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.completed[window]; ok {
		return nil
	}
	if err := j.log.Append(journalRecord{W: window, Cells: cells, Sum: recordSum(window, cells)}); err != nil {
		return err
	}
	j.completed[window] = cells
	return nil
}

// Resumed reports how many windows were loaded from a pre-existing journal.
func (j *FileJournal) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// Close closes the underlying file. Further Records fail.
func (j *FileJournal) Close() error { return j.log.Close() }

// Remove closes and deletes the journal file — called when the job it
// backs has committed, so a completed job never resumes.
func (j *FileJournal) Remove() error { return j.log.Remove() }
