package par

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if Resolve(1) != 1 || Resolve(7) != 7 {
		t.Fatal("positive workers must pass through")
	}
	if Resolve(0) < 1 || Resolve(-3) < 1 {
		t.Fatal("non-positive workers must resolve to at least 1")
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			for _, grain := range []int{1, 3, 64, 5000} {
				hits := make([]int32, n)
				For(workers, n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times",
							workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

// TestForDeterministicFloats is the core contract: a floating-point
// computation with per-chunk outputs is bit-identical at every worker count.
func TestForDeterministicFloats(t *testing.T) {
	const n = 10000
	src := make([]float64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range src {
		src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
	}
	run := func(workers int) []float64 {
		dst := make([]float64, n)
		For(workers, n, GrainCells, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[i] = math.Sqrt(math.Abs(src[i])) * 1.000000001
			}
		})
		return dst
	}
	ref := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: index %d differs: %x vs %x", w, i,
					math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	For(4, 100, 1, func(lo, hi int) {
		if lo == 50 {
			panic("boom")
		}
	})
}

func TestForContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := ForContext(ctx, 4, 1000, 10, func(lo, hi int) {
		atomic.AddInt32(&ran, 1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if atomic.LoadInt32(&ran) == 100 {
		t.Error("expected cancellation to skip at least the final chunks")
	}
	if err := ForContext(context.Background(), 2, 100, 10, func(lo, hi int) {}); err != nil {
		t.Fatalf("uncanceled run returned %v", err)
	}
}

func TestReduceMaxMatchesSerial(t *testing.T) {
	const n = 5000
	v := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want := math.Inf(-1)
	for _, x := range v {
		if x > want {
			want = x
		}
	}
	for _, w := range []int{1, 2, 8} {
		got := ReduceMax(w, n, 128, func(lo, hi int) float64 {
			m := math.Inf(-1)
			for i := lo; i < hi; i++ {
				if v[i] > m {
					m = v[i]
				}
			}
			return m
		})
		if got != want {
			t.Fatalf("workers=%d: got %g want %g", w, got, want)
		}
	}
}

func TestReduceErrReturnsLowestChunkError(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		err := ReduceErr(w, 1000, 10, func(lo, hi int) error {
			if lo >= 500 {
				return fmt.Errorf("chunk at %d", lo)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk at 500" {
			t.Fatalf("workers=%d: want lowest-chunk error, got %v", w, err)
		}
		if err := ReduceErr(w, 100, 10, func(lo, hi int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: clean run returned %v", w, err)
		}
	}
}

func TestRacePicksLowestIndexedSuccess(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		// Task 0 fails slowly, task 1 succeeds slowly, task 2 succeeds fast:
		// priority order must still pick task 1 at every worker count.
		tasks := []func(ctx context.Context) (int, error){
			func(ctx context.Context) (int, error) {
				time.Sleep(5 * time.Millisecond)
				return 0, errors.New("task 0 fails")
			},
			func(ctx context.Context) (int, error) {
				time.Sleep(10 * time.Millisecond)
				return 100, nil
			},
			func(ctx context.Context) (int, error) { return 200, nil },
		}
		winner, results := Race(context.Background(), w, tasks)
		if winner != 1 {
			t.Fatalf("workers=%d: winner %d, want 1", w, winner)
		}
		if results[1].Value != 100 {
			t.Fatalf("workers=%d: winner value %d", w, results[1].Value)
		}
		if results[0].Err == nil {
			t.Errorf("workers=%d: task 0 should have failed", w)
		}
	}
}

func TestRaceAllFail(t *testing.T) {
	tasks := []func(ctx context.Context) (int, error){
		func(ctx context.Context) (int, error) { return 0, errors.New("a") },
		func(ctx context.Context) (int, error) { return 0, errors.New("b") },
	}
	winner, results := Race(context.Background(), 4, tasks)
	if winner != -1 {
		t.Fatalf("winner %d, want -1", winner)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("task %d: expected error", i)
		}
	}
}

func TestRaceCancelsLowerPriorityAfterWin(t *testing.T) {
	sawCancel := make(chan struct{}, 1)
	tasks := []func(ctx context.Context) (int, error){
		func(ctx context.Context) (int, error) { return 1, nil },
		func(ctx context.Context) (int, error) {
			select {
			case <-ctx.Done():
				sawCancel <- struct{}{}
				return 0, ctx.Err()
			case <-time.After(2 * time.Second):
				return 2, nil
			}
		},
	}
	winner, _ := Race(context.Background(), 2, tasks)
	if winner != 0 {
		t.Fatalf("winner %d, want 0", winner)
	}
	select {
	case <-sawCancel:
	default:
		// Task 1 may not have started at all on a single-proc scheduler —
		// that is also a valid "canceled before start" outcome.
	}
}

func TestRaceParentContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	winner, results := Race(ctx, 2, []func(ctx context.Context) (int, error){
		func(ctx context.Context) (int, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return 7, nil
		},
	})
	if winner != -1 {
		t.Fatalf("winner %d, want -1 under canceled parent", winner)
	}
	if results[0].Err == nil {
		t.Fatal("expected the task to observe cancellation")
	}
}
