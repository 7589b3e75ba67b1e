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

// TestConcurrentAdmissionsKeepGaugesInBounds runs many jobs that finish at
// once (their context is already canceled) through admit and runJob from
// several goroutines, as concurrent handlers do. The queue-depth gauge must
// stay within [0, QueueCap] and the in-flight gauge within [0, Workers];
// refused jobs must leave every count as it was, or the final drain would
// wait forever; and once the drain returns, both gauges must read 0 and
// every solve slot must be free.
func TestConcurrentAdmissionsKeepGaugesInBounds(t *testing.T) {
	// More threads than cores, all kept busy, make the OS preempt the
	// admitting threads often, so admissions, slot hand-offs and releases
	// interleave in many orders.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers, queueCap = 4, 2
	s := New(Config{Workers: workers, QueueCap: queueCap})

	// The watcher alone writes the extremes; they are read after it stops.
	var lowQueue, highQueue, lowInflight, highInflight int64
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, f := s.stats.queueDepth.Get(), s.stats.inflight.Get()
			lowQueue, highQueue = min(lowQueue, q), max(highQueue, q)
			lowInflight, highInflight = min(lowInflight, f), max(highInflight, f)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var admitted, refused atomic.Int64
	var submit sync.WaitGroup
	for g := 0; g < 8; g++ {
		submit.Add(1)
		go func() {
			defer submit.Done()
			for i := 0; i < 2500; i++ {
				id, slot, err := s.admit()
				switch {
				case err == nil:
					admitted.Add(1)
					if _, err := s.runJob(ctx, id, slot, "", &Request{}); err == nil {
						t.Errorf("job %d ran although its context was canceled", id)
					}
				case errors.Is(err, errQueueFull):
					refused.Add(1)
				default:
					t.Errorf("admit: %v", err)
					return
				}
			}
		}()
	}
	submit.Wait()
	close(stop)
	watch.Wait()

	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after %d admitted, %d refused jobs: %v", admitted.Load(), refused.Load(), err)
	}
	if lowQueue < 0 || highQueue > queueCap {
		t.Errorf("queue depth gauge ranged over [%d, %d], want within [0, %d]", lowQueue, highQueue, queueCap)
	}
	if lowInflight < 0 || highInflight > workers {
		t.Errorf("in-flight gauge ranged over [%d, %d], want within [0, %d]", lowInflight, highInflight, workers)
	}
	if v := s.stats.queueDepth.Get(); v != 0 {
		t.Errorf("queue depth gauge = %d after drain, want 0", v)
	}
	if v := s.stats.inflight.Get(); v != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", v)
	}
	if n := len(s.slots); n != 0 {
		t.Errorf("%d solve slots still held after drain, want 0", n)
	}
	if got := s.stats.jobs.With("canceled").Get(); got != uint64(admitted.Load()) {
		t.Errorf("jobs_total{class=canceled} = %d, want one per admitted job (%d)", got, admitted.Load())
	}
}

// TestBurstAdmissionTakesFreeSlots pins what QueueCap counts under a burst:
// a job admitted while a solve slot is free takes it at once, so only jobs
// that must wait count against QueueCap. On one slot and one queue place, a
// burst of two is admitted, one job holding the slot and one waiting, and
// the third is refused.
func TestBurstAdmissionTakesFreeSlots(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1})
	type admission struct {
		id   uint64
		slot bool
	}
	var burst []admission
	for i := 0; i < 2; i++ {
		id, slot, err := s.admit()
		if err != nil {
			t.Fatalf("admission %d of 2 on one slot and one queue place: %v", i+1, err)
		}
		burst = append(burst, admission{id, slot})
	}
	if !burst[0].slot || burst[1].slot {
		t.Errorf("slots taken at admission = %v, %v; want the first job only", burst[0].slot, burst[1].slot)
	}
	if v := s.stats.queueDepth.Get(); v != 1 {
		t.Errorf("queue depth = %d with one job waiting, want 1", v)
	}
	if _, _, err := s.admit(); !errors.Is(err, errQueueFull) {
		t.Errorf("third admission: %v, want %v", err, errQueueFull)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range burst {
		if _, err := s.runJob(ctx, a.id, a.slot, "", &Request{}); err == nil {
			t.Errorf("job %d ran although its context was canceled", a.id)
		}
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if q, f, n := s.stats.queueDepth.Get(), s.stats.inflight.Get(), len(s.slots); q != 0 || f != 0 || n != 0 {
		t.Errorf("after drain: queue depth %d, in flight %d, slots held %d; want 0, 0, 0", q, f, n)
	}
}
