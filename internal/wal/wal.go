// Package wal is the append-only, fsync'd JSON-lines write-ahead log behind
// the window journal and the ECO session log.
//
// A log file is one JSON object per line: a header that binds the file to
// its owner (a content signature, a session ID), then one record per
// acknowledged append. Open reads the file once and keeps the intact prefix:
// the header if the caller accepts it, then records in order until the first
// line that is torn, undecodable or rejected by the caller (a checksum or
// sequence mismatch). Everything after the intact prefix is truncated, so
// the next append lands on a clean line. An intact final record that lost
// only its trailing newline is kept and terminated before any append, so it
// never fuses with the next record into one unreadable line. A file with no
// intact records — missing, foreign, stale or torn in its header — is reset
// to a fresh header: resuming is an optimization, never a correctness risk.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"

	"mclg/internal/mclgerr"
)

// Log is an open write-ahead log positioned after its last intact record.
// It is safe for concurrent use.
type Log[R any] struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	stage string // mclgerr stage label for every error
}

// Open opens (or creates) the log at path and returns the records it
// resumes. header decides whether the file's first line belongs to this
// owner; record decides whether a decoded record extends the intact prefix,
// given how many records precede it. When nothing resumes the file is
// rewritten with fresh as its header. Errors carry stage as their mclgerr
// stage.
func Open[H, R any](path, stage string, fresh H, header func(H) bool, record func(n int, r R) bool) (*Log[R], []R, error) {
	data, _ := os.ReadFile(path) // missing or unreadable: start fresh
	intact, recs := scan(data, header, record)

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, mclgerr.Stage(stage, err)
	}
	l := &Log[R]{f: f, path: path, stage: stage}
	if len(recs) == 0 {
		err = l.reset(fresh)
	} else {
		err = l.resume(data[:intact])
	}
	if err != nil {
		f.Close()
		return nil, nil, mclgerr.Stage(stage, err)
	}
	return l, recs, nil
}

// scan walks the file once and returns the byte length of its intact
// prefix together with the records in it.
func scan[H, R any](data []byte, header func(H) bool, record func(int, R) bool) (int, []R) {
	var recs []R
	n := 0
	for first := true; n < len(data); first = false {
		line, next := data[n:], len(data)
		if k := bytes.IndexByte(line, '\n'); k >= 0 {
			line, next = line[:k], n+k+1
		}
		if first {
			var h H
			if json.Unmarshal(line, &h) != nil || !header(h) {
				break
			}
		} else {
			var r R
			if json.Unmarshal(line, &r) != nil || !record(len(recs), r) {
				break
			}
			recs = append(recs, r)
		}
		n = next
	}
	return n, recs
}

// reset truncates the file to a fresh header line.
func (l *Log[R]) reset(hdr any) error {
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	return l.write(append(line, '\n'))
}

// resume drops everything past the intact prefix and positions appends at
// its end, terminating an intact final line that lost its newline.
func (l *Log[R]) resume(intact []byte) error {
	n := int64(len(intact))
	if err := l.f.Truncate(n); err != nil {
		return err
	}
	if _, err := l.f.Seek(n, 0); err != nil {
		return err
	}
	if intact[len(intact)-1] != '\n' {
		return l.write([]byte{'\n'})
	}
	return nil
}

func (l *Log[R]) write(b []byte) error {
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	return l.f.Sync()
}

// Append durably persists one record: marshal, add '\n', write, fsync. The
// record is acknowledged only when Append returns nil.
func (l *Log[R]) Append(rec R) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return mclgerr.Invalidf("%s: closed", l.stage)
	}
	line, err := json.Marshal(rec)
	if err == nil {
		err = l.write(append(line, '\n'))
	}
	if err != nil {
		return mclgerr.Stage(l.stage, err)
	}
	return nil
}

// Close closes the file; further Appends fail.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Remove closes and deletes the log, so the work it backs never resumes.
// An already-missing file is not an error.
func (l *Log[R]) Remove() error {
	l.Close()
	if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
		return mclgerr.Stage(l.stage, err)
	}
	return nil
}

// ReadHeader decodes only the first line of the log at path into hdr.
func ReadHeader(path string, hdr any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if len(line) == 0 {
		return mclgerr.Invalidf("%s: empty log (%v)", path, err)
	}
	if err := json.Unmarshal(bytes.TrimSuffix(line, []byte{'\n'}), hdr); err != nil {
		return mclgerr.Invalidf("%s: unreadable header: %v", path, err)
	}
	return nil
}
