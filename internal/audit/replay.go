package audit

import "fmt"

// ReplayCertificate is the sealed outcome of event-sourced (ECO session)
// certification: an independent replay of the session's full delta log from
// its base design must land bit-identically on the committed placement. It
// is the incremental-path counterpart of Certificate — instead of
// re-deriving optimality residuals for one solve, it proves that the chain
// of dirty-window re-legalizations is a pure function of (base design, delta
// log), so the live session state carries no hidden drift.
//
// The JSON encoding is stable and Hash is a SHA-256 over the canonical JSON
// with Hash blanked, exactly like Certificate: two replays that certify the
// same session produce byte-identical sealed certificates regardless of
// worker count or of how the live session's applies were scheduled.
type ReplayCertificate struct {
	Design string `json:"design"`
	Cells  int    `json:"cells"`

	// Batches and Deltas count the replayed log; LogSum is a SHA-256 over
	// the canonical JSON of the full delta log, so the certificate pins
	// *which* edit history it certifies.
	Batches int    `json:"batches"`
	Deltas  int    `json:"deltas"`
	LogSum  string `json:"log_sum"`

	// BaseHash is the position hash of the session's committed state zero
	// (the legalized base design); PosHash is the live session's committed
	// placement; ReplayHash is what the independent replay produced. Match
	// means PosHash == ReplayHash.
	BaseHash   string `json:"base_hash"`
	PosHash    string `json:"pos_hash"`
	ReplayHash string `json:"replay_hash"`
	Match      bool   `json:"match"`

	// Legal is the whole-design legality verdict of the replayed placement.
	Legal bool `json:"legal"`

	Pass bool   `json:"pass"`
	Hash string `json:"hash,omitempty"`
}

// Seal computes and stores the certificate hash. Any later mutation
// invalidates it (Verify detects this).
func (c *ReplayCertificate) Seal() error { return seal(c, &c.Hash, "replay certificate") }

// Verify recomputes the digest and reports whether the stored hash matches.
func (c *ReplayCertificate) Verify() bool { return verify(c, &c.Hash, "replay certificate") }

// Summary renders the one-line human-readable verdict.
func (c *ReplayCertificate) Summary() string {
	verdict := "FAIL"
	if c.Pass {
		verdict = "PASS"
	}
	return fmt.Sprintf("replay-audit %s: %s — batches=%d deltas=%d match=%v legal=%v pos=%s",
		c.Design, verdict, c.Batches, c.Deltas, c.Match, c.Legal, c.PosHash)
}

// LogDigest hashes an arbitrary JSON-encodable delta log into the canonical
// LogSum form. The eco package passes its batch slice; keeping the digest
// here means the certificate and the session log agree on one encoding.
func LogDigest(log any) (string, error) { return digest(log, "delta log") }
