package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/serve"
	"mclg/internal/serve/report"
)

// maxRetryWait caps how long a single Retry-After hint can park the client;
// a daemon advertising a longer wait is treated as too busy to wait out.
const maxRetryWait = 60 * time.Second

// submitRemote sends the job to an mclgd daemon instead of solving locally,
// and returns the daemon's report.
//
// A 429 (queue full or tenant rate-limited) is retried up to retries times,
// honoring the daemon's Retry-After hint plus up to 25% jitter so a herd of
// refused clients does not re-stampede in lockstep. Any other status is
// terminal: the daemon's error classes are not transient.
func submitRemote(serverURL string, req *serve.Request, timeout time.Duration, retries int) (*report.Report, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	client := &http.Client{}
	if timeout > 0 {
		// Leave headroom over the job deadline so the daemon's own 504
		// arrives instead of a client-side cutoff.
		client.Timeout = timeout + 10*time.Second
	}
	url := strings.TrimSuffix(serverURL, "/") + "/v1/legalize"
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retries {
			wait := retryWait(resp.Header.Get("Retry-After"), attempt)
			fmt.Fprintf(os.Stderr, "mclg: server busy (HTTP 429), retry %d/%d in %s\n",
				attempt+1, retries, wait.Round(time.Millisecond))
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			var eb struct {
				Error string `json:"error"`
				Class string `json:"class"`
			}
			if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
				return nil, fmt.Errorf("server: %s (%s, HTTP %d)", eb.Error, eb.Class, resp.StatusCode)
			}
			return nil, fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		}
		rep := &report.Report{}
		if err := json.Unmarshal(raw, rep); err != nil {
			return nil, fmt.Errorf("server: unparsable response: %w", err)
		}
		return rep, nil
	}
}

// retryWait turns a Retry-After header into a bounded, jittered sleep. A
// missing or malformed hint falls back to exponential backoff from 1s.
func retryWait(header string, attempt int) time.Duration {
	base := time.Second << min(attempt, 5)
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs > 0 {
		base = time.Duration(secs) * time.Second
	}
	if base > maxRetryWait {
		base = maxRetryWait
	}
	return base + time.Duration(rand.Int64N(int64(base)/4+1))
}

// readUpload reads the Bookshelf components an .aux file names, keyed as a
// request's files upload, so the daemon needs no filesystem access to the
// design. It reads them in bookshelf.ReadFiles' order, so a set missing
// several components fails on the one a local read names.
func readUpload(auxPath string) (map[string]string, error) {
	files, err := bookshelf.ReadAux(auxPath)
	if err != nil {
		return nil, err
	}
	up := map[string]string{}
	for _, f := range []struct{ comp, path string }{
		{"scl", files.Scl}, {"nodes", files.Nodes}, {"pl", files.Pl},
		{"nets", files.Nets}, {"wts", files.Wts},
	} {
		if f.path == "" {
			continue
		}
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		up[f.comp] = string(raw)
	}
	return up, nil
}
