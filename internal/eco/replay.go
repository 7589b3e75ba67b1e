package eco

import (
	"context"

	"mclg/internal/audit"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// Replay reconstructs a session state from first principles: a fresh
// session over the base design (no durable log), with the journaled batches
// re-applied in order. Because every pipeline stage is deterministic and
// every run solves cold, the replayed session's committed placement is
// bit-identical to the live session that produced the log — the property
// Certify turns into a sealed certificate.
func Replay(ctx context.Context, base *design.Design, log []Batch, opts Options) (*Session, error) {
	opts.LogPath = ""
	opts.LogMeta = nil
	s, err := Create(ctx, "replay", base, opts)
	if err != nil {
		return nil, err
	}
	for _, b := range log {
		res, err := s.Apply(ctx, b.Deltas)
		if err != nil {
			return nil, mclgerr.Stage("eco-replay", err)
		}
		if b.Seq != 0 && res.Seq != b.Seq {
			return nil, mclgerr.Invalidf("eco-replay: batch replayed to seq %d, journal says %d", res.Seq, b.Seq)
		}
	}
	return s, nil
}

// Certify independently replays the session's full delta log from its base
// design and seals the outcome as an audit.ReplayCertificate: Pass means
// the replay reproduced the committed placement hash exactly and the
// replayed placement passes the whole-design legality checker. The live
// session is not mutated; the replay runs on clones.
func (s *Session) Certify(ctx context.Context) (*audit.ReplayCertificate, error) {
	s.mu.Lock()
	base := s.base.Clone()
	log := make([]Batch, len(s.log))
	copy(log, s.log)
	opts := s.opts
	posHash := s.posHash
	name := s.cur.Name
	cells := len(s.cur.Cells)
	s.mu.Unlock()

	deltas := 0
	for _, b := range log {
		deltas += len(b.Deltas)
	}
	logSum, err := audit.LogDigest(log)
	if err != nil {
		return nil, err
	}
	cert := &audit.ReplayCertificate{
		Design:  name,
		Cells:   cells,
		Batches: len(log),
		Deltas:  deltas,
		LogSum:  logSum,
		PosHash: posHash,
	}

	rs, err := Replay(ctx, base, log, opts)
	if err != nil {
		// A replay that cannot even run is a failed certificate, not an
		// API error — unless the caller canceled.
		if cerr := mclgerr.FromContext(ctx); cerr != nil {
			return nil, cerr
		}
		cert.ReplayHash = "error: " + err.Error()
		if sErr := cert.Seal(); sErr != nil {
			return nil, sErr
		}
		return cert, nil
	}
	replayed := rs.Design()
	cert.BaseHash = rs.BaseHash()
	cert.ReplayHash = rs.PosHash()
	cert.Match = cert.ReplayHash == posHash
	cert.Legal = design.CheckLegal(replayed).Legal()
	cert.Pass = cert.Match && cert.Legal
	if err := cert.Seal(); err != nil {
		return nil, err
	}
	return cert, nil
}
