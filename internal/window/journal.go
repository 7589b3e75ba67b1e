package window

import (
	"fmt"
	"hash/fnv"
	"math"

	"mclg/internal/wal"
)

// The write-ahead journal behind Options.JournalPath is an append-only,
// fsync'd JSON-lines log (internal/wal): a header, then one record per
// verified window. An append returns only after its line is fsync'd, so
// every acknowledged window survives a process kill; a torn final line from
// a crash mid-write is detected by checksum and ignored. Degraded results
// are never journaled.

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

// newRecord returns the checksummed journal record of window w's cells.
func newRecord(w int, cells []CellPos) journalRecord {
	return journalRecord{W: w, Cells: cells, Sum: recordSum(w, cells)}
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

// openJournal opens (or creates) the journal at path for a plan with the
// given signature and window count, and returns the intact records to
// replay. A missing, unreadable, torn, or mismatching file is reset to a
// fresh header.
func openJournal(path string, sig uint64, windows int) (*wal.Log[journalRecord], []journalRecord, error) {
	hdr := journalHeader{V: 1, Sig: fmt.Sprintf("%016x", sig), Windows: windows}
	return wal.Open(path, "journal", hdr,
		func(h journalHeader) bool { return h == hdr },
		func(_ int, r journalRecord) bool {
			return r.W >= 0 && r.W < windows && r.Sum == recordSum(r.W, r.Cells)
		})
}
