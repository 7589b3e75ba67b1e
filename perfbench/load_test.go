package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mclg/internal/core"
	"mclg/internal/eco"
)

// stallServer answers every request with an empty report, one at a time;
// the first request holds the server for stall.
func stallServer(t *testing.T, stall time.Duration) *liveServer {
	var (
		mu    sync.Mutex
		first = true
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Write([]byte(`{"legal": true}`))
	}))
	t.Cleanup(ts.Close)
	return &liveServer{url: ts.URL, client: ts.Client()}
}

func TestOpenLoopStallInflatesLaterLatency(t *testing.T) {
	const (
		stall = 300 * time.Millisecond
		gap   = 20 * time.Millisecond
		n     = 8
	)
	in := &serveInputs{uploads: []upload{{body: []byte(`{}`)}}}
	for i := 0; i < n; i++ {
		in.schedule = append(in.schedule, arrival{due: time.Duration(i) * gap})
	}
	out, start := drive(stallServer(t, stall), in, n)
	lat := latencies(out)
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if want := o.due.Sub(start); want != in.schedule[i].due {
			t.Errorf("request %d: due at %v, scheduled %v", i, want, in.schedule[i].due)
		}
		if !near(lat[i], o.done.Sub(o.due).Seconds()) {
			t.Errorf("request %d: latency %gs is not done − due", i, lat[i])
		}
		// Every request queued behind the stall: its latency from the due
		// time must include the rest of the stall, although the server
		// answers it at once.
		if rest := stall - in.schedule[i].due; lat[i] < rest.Seconds() {
			t.Errorf("request %d (due %v): latency %gs hides the stall (at least %gs)", i, in.schedule[i].due, lat[i], rest.Seconds())
		}
	}
	// The requests no sender could take at their due time waited before
	// sending; timing them from the send would hide that wait.
	last := out[n-1]
	if late := last.sent.Sub(last.due); late < stall/2 {
		t.Errorf("last request sent %v after its due time; the stall should have held every sender", late)
	}
	if closed := last.done.Sub(last.sent).Seconds(); closed >= lat[n-1] {
		t.Errorf("send-to-done %gs should be below due-to-done %gs", closed, lat[n-1])
	}
}

func TestLatencyOfFailedRequestIsInfinite(t *testing.T) {
	now := time.Now()
	out := []outcome{
		{due: now, done: now.Add(ms(5))},
		{due: now, done: now.Add(ms(1)), err: context.DeadlineExceeded},
	}
	lat := latencies(out)
	if !near(lat[0], 0.005) || !math.IsInf(lat[1], 1) {
		t.Errorf("latencies %v", lat)
	}
}

func TestDeltaStreamStaysInStepWithSession(t *testing.T) {
	base, err := generate(3, 0, suiteDesign{"fft_2", 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := eco.Create(ctx, "test", base, eco.Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stream := newDeltaStream(3, base)
	for i := 0; i < 12; i++ {
		res, err := s.Apply(ctx, stream.draw())
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		stream.accept()
		if len(stream.cur.w) != res.Cells {
			t.Fatalf("batch %d: stream tracks %d cells, session has %d", i, len(stream.cur.w), res.Cells)
		}
		if _, err := checkSession(s, res); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}
