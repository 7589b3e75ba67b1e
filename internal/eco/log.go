package eco

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"mclg/internal/mclgerr"
	"mclg/internal/wal"
)

// logHeader is the first line of a session log. Sig content-addresses the
// base design and the session options (Session.logSig), so a log never
// resumes against a different base or configuration; BaseHash pins the
// legalized state-zero placement; Meta is an opaque caller payload (a
// daemon stores the session-create request so a restart can rebuild the
// base design before replaying).
type logHeader struct {
	V        int             `json:"v"`
	ID       string          `json:"id"`
	Sig      string          `json:"sig"`
	BaseHash string          `json:"base_hash"`
	Meta     json.RawMessage `json:"meta,omitempty"`
}

// logRecord is one accepted batch. PosHash is the committed placement hash
// after the batch, verified on resume; Sum is a FNV-1a checksum over the
// record's canonical JSON with Sum blanked.
type logRecord struct {
	Seq     int     `json:"seq"`
	Deltas  []Delta `json:"deltas"`
	PosHash string  `json:"pos_hash"`
	Sum     string  `json:"sum,omitempty"`
}

func (r logRecord) sum() string {
	r.Sum = ""
	b, _ := json.Marshal(r)
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ReadLogMeta reads just the header of a session log: the session ID and
// the caller's Meta payload. A daemon restart scans its log directory with
// this to learn which sessions to rebuild before it can replay them.
func ReadLogMeta(path string) (id string, meta json.RawMessage, err error) {
	var hdr logHeader
	if err := wal.ReadHeader(path, &hdr); err != nil {
		return "", nil, mclgerr.Stage("eco-log", err)
	}
	if hdr.V != 1 {
		return "", nil, mclgerr.Invalidf("eco-log %s: unreadable header", path)
	}
	return hdr.ID, hdr.Meta, nil
}

// openFileLog opens (or creates) the durable half of the session journal:
// a write-ahead log (internal/wal) with one header line binding it to
// (id, sig, baseHash), then one checksummed record per accepted batch, in
// sequence. The intact records are returned for replay; anything else —
// missing, torn header, mismatching signature — is reset to a fresh header.
func openFileLog(path, id, sig, baseHash string, meta []byte) (*wal.Log[logRecord], []logRecord, error) {
	return wal.Open(path, "eco-log", logHeader{V: 1, ID: id, Sig: sig, BaseHash: baseHash, Meta: meta},
		func(h logHeader) bool { return h.V == 1 && h.ID == id && h.Sig == sig && h.BaseHash == baseHash },
		func(n int, r logRecord) bool { return r.Seq == n+1 && r.Sum == r.sum() })
}
