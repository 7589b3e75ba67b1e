package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/gen"
	"mclg/internal/serve"
	"mclg/internal/window"
)

// TestRetryWaitHonorsRetryAfter pins the 429 backoff contract: the daemon's
// Retry-After hint is the base wait, jitter adds at most 25%, a malformed or
// missing hint falls back to exponential backoff from 1s, and no single wait
// exceeds the cap.
func TestRetryWaitHonorsRetryAfter(t *testing.T) {
	inRange := func(name string, got, lo, hi time.Duration) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s: wait %v outside [%v, %v]", name, got, lo, hi)
		}
	}
	for i := 0; i < 50; i++ { // jitter is random; the bounds must always hold
		inRange("Retry-After: 3", retryWait("3", 0), 3*time.Second, 3*time.Second+750*time.Millisecond)
		inRange("Retry-After: 3 (late attempt)", retryWait(" 3 ", 4), 3*time.Second, 3*time.Second+750*time.Millisecond)

		// Missing / malformed / non-positive hints: exponential from 1s.
		inRange("no header, attempt 0", retryWait("", 0), time.Second, time.Second+250*time.Millisecond)
		inRange("no header, attempt 2", retryWait("", 2), 4*time.Second, 5*time.Second)
		inRange("malformed", retryWait("soon", 0), time.Second, time.Second+250*time.Millisecond)
		inRange("zero", retryWait("0", 1), 2*time.Second, 2500*time.Millisecond)

		// An absurd hint (or deep exponential backoff) is capped.
		inRange("huge hint", retryWait("86400", 0), maxRetryWait, maxRetryWait+maxRetryWait/4)
		inRange("deep backoff", retryWait("", 30), 32*time.Second, 40*time.Second)
	}
}

// TestUploadNamesMissingComponentLikeRead pins mclg's two modes to one
// error on a set that lacks several components: every upload attempt must
// fail on the component a local read fails on, not on whichever one a map
// walk reached first.
func TestUploadNamesMissingComponentLikeRead(t *testing.T) {
	aux := writeSet(t, "d.nodes", "d.scl")
	_, want := bookshelf.Read(aux)
	if want == nil {
		t.Fatal("a local read of a set without d.nodes and d.scl succeeded")
	}
	for i := 0; i < 32; i++ {
		if _, err := readUpload(aux); err == nil || err.Error() != want.Error() {
			t.Fatalf("attempt %d: upload error %v, local read %v", i, err, want)
		}
	}
}

// writeSet writes fft_2 at scale 0.004 as a Bookshelf set in a temporary
// directory, removes the named component files and returns the .aux path.
func writeSet(t *testing.T, remove ...string) string {
	t.Helper()
	e, err := gen.FindEntry("fft_2")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	aux := filepath.Join(dir, "d.aux")
	if err := bookshelf.Write(g, aux); err != nil {
		t.Fatal(err)
	}
	for _, name := range remove {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return aux
}

// TestUploadSkipsMissingWeights pins the parity of mclg's two modes on an
// optional component: a set whose .aux names a .wts that does not exist
// reads locally, so -server uploads it without weights and gets back the
// local placement.
func TestUploadSkipsMissingWeights(t *testing.T) {
	aux := writeSet(t, "d.wts")
	c, err := parseArgs(flag.NewFlagSet("mclg", flag.ContinueOnError), []string{"-aux", aux})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	d, err := loadDesign(c.aux, c.req.Bench, c.req.Scale)
	if err != nil {
		t.Fatalf("local read: %v", err)
	}
	local, err := c.req.Solve(context.Background(), d, window.Legalize)
	if err != nil {
		t.Fatalf("local solve: %v", err)
	}
	req := c.req
	if req.Files, err = readUpload(c.aux); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, ok := req.Files["wts"]; ok {
		t.Error("upload carries a wts component the set lacks")
	}
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	served, err := submitRemote(ts.URL, &req, 0, 0)
	if err != nil {
		t.Fatalf("served: %v", err)
	}
	if !local.Legal || served.PosHash != local.PosHash {
		t.Errorf("served placement %s, local %s (legal %v)", served.PosHash, local.PosHash, local.Legal)
	}
}
