package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmitCountsJobBeforeWorkersSeeIt admits many jobs that finish at once
// (their context is already canceled) against a running worker pool, so a
// worker often finishes a job before admit returns. Admission must count the
// job before sending it: otherwise jobsWG goes negative, which panics, and
// the queue-depth gauge dips below zero. Refused jobs must leave both counts
// as they were, or the final drain would wait forever.
func TestAdmitCountsJobBeforeWorkersSeeIt(t *testing.T) {
	// More threads than cores, all kept busy, make the OS preempt the
	// admitting thread often, so a worker on another thread can run a job
	// start to finish in the gap between admit's send and its next line.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := New(Config{Workers: 4, QueueCap: 2})
	var lowest atomic.Int64
	stop := make(chan struct{})
	var busy sync.WaitGroup
	for k := 0; k < 4; k++ {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := s.stats.queueDepth.Get(); v < lowest.Load() {
					lowest.Store(v)
				}
			}
		}()
	}

	var admitted []*job
	refused := 0
	for i := 0; i < 20000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		j := &job{id: uint64(i), req: &Request{}, ctx: ctx, cancel: cancel,
			queuedAt: time.Now(), done: make(chan struct{})}
		switch err := s.admit(j); {
		case err == nil:
			admitted = append(admitted, j)
		case errors.Is(err, errQueueFull):
			refused++
		default:
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for _, j := range admitted {
		<-j.done
	}
	close(stop)
	busy.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after %d admitted, %d refused jobs: %v", len(admitted), refused, err)
	}
	if v := lowest.Load(); v < 0 {
		t.Errorf("queue depth gauge dipped to %d", v)
	}
	if v := s.stats.queueDepth.Get(); v != 0 {
		t.Errorf("queue depth gauge = %d after drain, want 0", v)
	}
}
