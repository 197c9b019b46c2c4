package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		p := NewPool(size)
		for _, n := range []int{1, 7, 64, 1000} {
			hits := make([]int32, n)
			p.For(n, 3, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("size=%d n=%d: index %d visited %d times", size, n, i, h)
				}
			}
			if got := p.InUse(); got != 0 {
				t.Fatalf("size=%d: %d tokens leaked", size, got)
			}
		}
	}
}

func TestForNeverExceedsBudget(t *testing.T) {
	const size = 3
	p := NewPool(size)
	var inFlight, peak atomic.Int32
	p.For(64, 1, func(start, end int) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	})
	// The caller plus at most size-1 borrowed workers.
	if got := peak.Load(); got > size {
		t.Fatalf("observed %d concurrent chunks, budget is %d", got, size)
	}
}

func TestNestedForIsDeadlockFreeAndCorrect(t *testing.T) {
	p := NewPool(4)
	const outer, inner = 16, 257
	sums := make([]int64, outer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.For(outer, 1, func(os, oe int) {
			for o := os; o < oe; o++ {
				var acc atomic.Int64
				p.For(inner, 16, func(is, ie int) {
					var local int64
					for i := is; i < ie; i++ {
						local += int64(i)
					}
					acc.Add(local)
				})
				sums[o] = acc.Load()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
	want := int64(inner * (inner - 1) / 2)
	for o, s := range sums {
		if s != want {
			t.Fatalf("outer %d: sum %d, want %d", o, s, want)
		}
	}
	if got := p.InUse(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
}

func TestForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
		if got := p.InUse(); got != 0 {
			t.Fatalf("%d tokens leaked after panic", got)
		}
	}()
	p.For(100, 1, func(start, end int) {
		if start == 50 {
			panic("boom")
		}
	})
}

func TestMapReduceOrderIndependentOfWorkers(t *testing.T) {
	// A non-commutative reduction (string concatenation) must come out
	// identical at every pool size: the chunk layout and fold order are
	// fixed by (n, grain) alone.
	const n, grain = 103, 7
	var want string
	for _, size := range []int{1, 2, 3, 8} {
		p := NewPool(size)
		got := MapReduce(p, n, grain, func(start, end int) string {
			return fmt.Sprintf("[%d,%d)", start, end)
		}, func(a, b string) string { return a + "|" + b })
		if size == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("size=%d: %q != sequential %q", size, got, want)
		}
	}
}

func TestMapReduceSum(t *testing.T) {
	p := NewPool(4)
	got := MapReduce(p, 10000, 33, func(start, end int) int64 {
		var s int64
		for i := start; i < end; i++ {
			s += int64(i)
		}
		return s
	}, func(a, b int64) int64 { return a + b })
	if want := int64(10000 * 9999 / 2); got != want {
		t.Fatalf("sum %d, want %d", got, want)
	}
	if MapReduce(p, 0, 1, func(int, int) int { return 1 }, func(a, b int) int { return a + b }) != 0 {
		t.Fatal("empty MapReduce must return the zero value")
	}
}

func TestAcquireStarvesFor(t *testing.T) {
	// With every token held by top-level jobs, For must still make
	// progress inline on the caller.
	p := NewPool(2)
	p.Acquire()
	p.Acquire()
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on an exhausted pool")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sum int64
		p.For(100, 10, func(start, end int) {
			for i := start; i < end; i++ {
				sum += int64(i) // single-threaded by construction here
			}
		})
		if sum != 100*99/2 {
			t.Error("sequential fallback computed the wrong sum")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("For blocked on an exhausted budget")
	}
	p.Release()
	p.Release()
}

func TestBudgetSharedAcrossConcurrentJobs(t *testing.T) {
	// Simulates the proving service: top-level jobs Acquire a token, and
	// their inner loops borrow only what is left. Total concurrency
	// (job goroutines + borrowed workers) must never exceed the budget.
	const size = 4
	p := NewPool(size)
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for job := 0; job < 8; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Acquire()
			defer p.Release()
			p.For(200, 5, func(start, end int) {
				cur := inFlight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				inFlight.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > size {
		t.Fatalf("observed %d concurrent chunks across jobs, budget is %d", got, size)
	}
	if got := p.InUse(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
}

func TestSetDefaultSizeRaces(t *testing.T) {
	defer SetDefaultSize(0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				SetDefaultSize(1 + (i+k)%4)
				For(100, 7, func(start, end int) {})
				_ = DefaultSize()
				_ = Default().InUse()
			}
		}(i)
	}
	wg.Wait()
	SetDefaultSize(3)
	if DefaultSize() != 3 {
		t.Fatal("SetDefaultSize did not take effect")
	}
	SetDefaultSize(0)
	if DefaultSize() < 1 {
		t.Fatal("default size must be at least 1")
	}
}

func TestForCtxSkipsChunksAfterCancel(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := NewPool(size)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		p.ForCtx(ctx, 1000, 1, func(start, end int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		// At most the chunks that were already in flight when cancel hit
		// may run; everything scheduled afterwards is skipped.
		if got := ran.Load(); got > int32(3+size) {
			t.Fatalf("size %d: %d chunks ran after cancellation at chunk 3", size, got)
		}
		if ctx.Err() == nil {
			t.Fatal("context should be canceled")
		}
	}
}

func TestForCtxNilAndUncanceledCoverEverything(t *testing.T) {
	p := NewPool(4)
	for _, ctx := range []context.Context{nil, context.Background()} {
		hits := make([]int32, 500)
		p.ForCtx(ctx, len(hits), 7, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d ran %d times", i, h)
			}
		}
	}
}

func TestAcquireCtx(t *testing.T) {
	p := NewPool(1)
	if err := p.AcquireCtx(context.Background()); err != nil {
		t.Fatalf("acquire on an idle pool: %v", err)
	}
	// Pool exhausted: a canceled context must abandon the wait without
	// taking (or leaking) a token.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.AcquireCtx(ctx) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("acquire on a full pool with canceled ctx: %v", err)
	}
	p.Release()
	if got := p.InUse(); got != 0 {
		t.Fatalf("%d tokens leaked", got)
	}
}

// TestDispatchAllocFree pins the allocation contract of the dispatch
// itself: a warm For, ForCtx or MapReduce allocates nothing at any
// parallelism, so callers' allocs/op do not depend on the core count.
func TestDispatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts, so warm jobs are rebuilt")
	}
	for _, size := range []int{1, 2, 4} {
		p := NewPool(size)
		out := make([]int64, 256)
		body := func(start, end int) {
			for i := start; i < end; i++ {
				out[i]++
			}
		}
		mapChunk := func(start, end int) [4]uint64 { return [4]uint64{uint64(start), uint64(end)} }
		reduce := func(a, b [4]uint64) [4]uint64 { return [4]uint64{a[0] + b[0], a[1] + b[1]} }
		ctx := context.Background()
		for _, tc := range []struct {
			name string
			f    func()
		}{
			{"For", func() { p.For(len(out), 8, body) }},
			{"ForCtx", func() { p.ForCtx(ctx, len(out), 8, body) }},
			{"MapReduce", func() { MapReduce(p, len(out), 8, mapChunk, reduce) }},
		} {
			tc.f() // warm the job pools
			if avg := testing.AllocsPerRun(100, tc.f); avg != 0 {
				t.Errorf("size %d: warm %s allocates %.2f objects/op, want 0", size, tc.name, avg)
			}
		}
	}
}
