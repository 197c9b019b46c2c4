// Package parallel is the process-wide worker budget shared by every hot
// loop in the prover stack (MLE folding, sumcheck rounds, Merkle hashing,
// MSMs, NTTs, matmul) and by the proving service's job pool.
//
// The design is deliberately work-stealing-free: a Pool is a fixed number
// of tokens, one per hardware thread the process is willing to burn.
// Top-level jobs (an HTTP proving worker, a CLI prove) Acquire a token
// for their own goroutine; data-parallel loops inside a job borrow
// whatever tokens are free with TryAcquire and fall back to running
// inline when none are. Because inner loops never block on the budget,
// nesting is deadlock-free by construction, and because the budget is
// shared, per-proof parallelism and cross-request concurrency cannot
// oversubscribe the machine: N concurrent proofs on an N-core box each
// run sequentially, one proof on an idle box fans out across all cores.
//
// Determinism: For bodies write disjoint index ranges and MapReduce
// folds fixed-size chunks in chunk order, so results are independent of
// the number of workers that happened to run — parallelism 1 and N
// produce byte-identical proofs (pinned by TestBatchProveBitIdentical
// in the root package).
//
// The default pool is sized from the ZKVC_PARALLELISM environment
// variable when set, else runtime.GOMAXPROCS. zkvc.SetParallelism,
// server.Config.Parallelism and `zkvc serve -parallelism` resize it.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Pool is a fixed budget of worker tokens. The zero value is not usable;
// create pools with NewPool or use the process-wide Default.
type Pool struct {
	tokens chan struct{}
	size   int
}

// NewPool returns a pool of n tokens (n < 1 is clamped to 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{tokens: make(chan struct{}, n), size: n}
}

// Size returns the token budget.
func (p *Pool) Size() int { return p.size }

// InUse returns the number of tokens currently held. It is a snapshot
// for metrics, not a synchronization primitive.
func (p *Pool) InUse() int { return len(p.tokens) }

// Acquire blocks until a token is free. It is meant for top-level job
// admission (the proving service's workers); data-parallel loops must
// use TryAcquire so that nested parallelism degrades to sequential
// execution instead of deadlocking.
func (p *Pool) Acquire() { p.tokens <- struct{}{} }

// AcquireCtx blocks until a token is free or ctx is done, in which case
// it returns ctx's error without holding a token. It is the admission
// path for request-scoped work: a caller whose client has already gone
// away should stop waiting in line, not eventually burn a token proving
// something nobody will read.
func (p *Pool) AcquireCtx(ctx context.Context) error {
	select {
	case p.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a token if one is free.
func (p *Pool) TryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token taken by Acquire or TryAcquire.
func (p *Pool) Release() { <-p.tokens }

// For runs body over [0, n) split into chunks of at most grain indices.
// The calling goroutine always participates; additional workers join
// only for tokens that are free right now, so For never blocks on the
// budget and nests safely. body must treat its [start, end) range as
// exclusive property — disjoint writes are what make the parallel and
// sequential schedules indistinguishable.
//
// A panic in any chunk is re-raised on the caller after all chunks
// finish (the first panic value wins).
func (p *Pool) For(n, grain int, body func(start, end int)) {
	p.ForCtx(nil, n, grain, body)
}

// ForCtx is For with cooperative cancellation: once ctx is done, chunks
// that have not started yet are skipped (chunks already running finish —
// bodies own their index ranges and are never interrupted mid-write).
// The caller decides what cancellation means by checking ctx.Err after
// the call; ForCtx itself returns nothing, exactly like For, so the two
// schedules stay drop-in interchangeable. A nil ctx means no
// cancellation.
func (p *Pool) ForCtx(ctx context.Context, n, grain int, body func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	extra := p.borrow(chunks)
	if extra == 0 {
		if ctx == nil || ctx.Err() == nil {
			body(0, n)
		}
		return
	}
	j := forJobs.Get().(*forJob)
	j.ctx, j.n, j.grain, j.body = ctx, n, grain, body
	p.run(&j.job, chunks, extra)
	j.ctx, j.body = nil, nil
	forJobs.Put(j)
}

// borrow takes up to min(chunks, size)−1 free tokens for helper workers
// and returns how many it got; 0 means run sequentially.
func (p *Pool) borrow(chunks int) int {
	extra := 0
	for extra < chunks-1 && extra < p.size-1 && p.TryAcquire() {
		extra++
	}
	return extra
}

// job is the dispatch state shared by the caller and the helper workers
// of one For or MapReduce call. Jobs are pooled, the per-chunk work is a
// method of the job rather than a closure, and helpers are started as
// capture-free goroutines that receive their job over handoff, so a warm
// dispatch allocates nothing at any parallelism.
type job struct {
	work     chunker // the job's own outer struct
	chunks   int64
	next     atomic.Int64
	panicVal atomic.Pointer[any]
	wg       sync.WaitGroup
}

// chunker runs chunk c of a job.
type chunker interface{ chunk(c int) }

// handoff passes jobs to freshly started helper goroutines. Every send
// follows the start of one helper that receives exactly once, so a full
// buffer only delays a sender until an already-started helper runs. The
// helpers in flight at once are bounded by the tokens of the live pools,
// which stay well under 64 on the machines this targets, so a send
// normally does not wait for its helper to be scheduled.
var handoff = make(chan *job, 64)

func helper() {
	j := <-handoff
	j.loop()
	j.wg.Done()
}

// loop claims and runs chunks until none are left, recording the first
// panic instead of unwinding past the job.
func (j *job) loop() {
	defer func() {
		if r := recover(); r != nil {
			v := r // heap-allocated only on this path
			j.panicVal.CompareAndSwap(nil, &v)
		}
	}()
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		j.work.chunk(int(c))
	}
}

// run executes chunk indices [0, chunks) of j across the caller plus
// extra already-acquired workers, releasing the extra tokens before
// returning.
func (p *Pool) run(j *job, chunks, extra int) {
	j.chunks = int64(chunks)
	j.next.Store(0)
	j.panicVal.Store(nil)
	j.wg.Add(extra)
	for i := 0; i < extra; i++ {
		go helper()
		handoff <- j
	}
	j.loop()
	j.wg.Wait()
	for i := 0; i < extra; i++ {
		p.Release()
	}
	if r := j.panicVal.Load(); r != nil {
		panic(*r)
	}
}

// chunkBounds returns the index range of chunk c.
func chunkBounds(c, n, grain int) (start, end int) {
	start = c * grain
	return start, min(start+grain, n)
}

type forJob struct {
	job
	ctx      context.Context
	n, grain int
	body     func(start, end int)
}

var forJobs = sync.Pool{New: func() any {
	j := new(forJob)
	j.work = j
	return j
}}

func (j *forJob) chunk(c int) {
	if j.ctx != nil && j.ctx.Err() != nil {
		return
	}
	j.body(chunkBounds(c, j.n, j.grain))
}

// MapReduce maps fixed chunks of [0, n) and folds the chunk results in
// chunk-index order: reduce(...reduce(map(0..g), map(g..2g))...). The
// chunk layout depends only on n and grain — never on how many workers
// ran — so the result is identical at every parallelism level even for
// non-commutative reductions. Returns the zero T when n <= 0.
func MapReduce[T any](p *Pool, n, grain int, mapChunk func(start, end int) T, reduce func(acc, next T) T) T {
	var zero T
	if n <= 0 {
		return zero
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	extra := p.borrow(chunks)
	if extra == 0 {
		return mapSeq(n, grain, chunks, mapChunk, reduce)
	}
	pool := mapJobPool[T]()
	j := pool.Get().(*mapJob[T])
	j.n, j.grain, j.mapChunk = n, grain, mapChunk
	if cap(j.results) < chunks {
		j.results = make([]T, chunks)
	}
	j.results = j.results[:chunks]
	p.run(&j.job, chunks, extra)
	acc := j.results[0]
	for c := 1; c < chunks; c++ {
		acc = reduce(acc, j.results[c])
	}
	clear(j.results)
	j.mapChunk = nil
	pool.Put(j)
	return acc
}

// mapJob holds one MapReduce call; results are its pooled per-chunk
// result slots.
type mapJob[T any] struct {
	job
	n, grain int
	mapChunk func(start, end int) T
	results  []T
}

func (j *mapJob[T]) chunk(c int) {
	j.results[c] = j.mapChunk(chunkBounds(c, j.n, j.grain))
}

// mapJobs holds one sync.Pool of *mapJob[T] per result type T, keyed by
// the typed nil pointer (*T)(nil), which is distinct for every T and
// converts to an interface without allocating.
var mapJobs sync.Map

func mapJobPool[T any]() *sync.Pool {
	key := any((*T)(nil))
	if pl, ok := mapJobs.Load(key); ok {
		return pl.(*sync.Pool)
	}
	pl, _ := mapJobs.LoadOrStore(key, &sync.Pool{New: func() any {
		j := new(mapJob[T])
		j.work = j
		return j
	}})
	return pl.(*sync.Pool)
}

// mapSeq is the sequential MapReduce schedule: the same chunk layout and
// fold order as the parallel path, on the calling goroutine.
func mapSeq[T any](n, grain, chunks int, mapChunk func(start, end int) T, reduce func(acc, next T) T) T {
	acc := mapChunk(chunkBounds(0, n, grain))
	for c := 1; c < chunks; c++ {
		acc = reduce(acc, mapChunk(chunkBounds(c, n, grain)))
	}
	return acc
}

// defaultPool is swapped atomically so resizing races cleanly with loops
// already in flight (they keep their pool; new loops see the new one).
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(NewPool(envSize()))
}

// envSize derives the default budget: ZKVC_PARALLELISM when set to a
// positive integer, else GOMAXPROCS.
func envSize() int {
	if v := os.Getenv("ZKVC_PARALLELISM"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Default returns the process-wide pool.
func Default() *Pool { return defaultPool.Load() }

// DefaultSize returns the process-wide budget.
func DefaultSize() int { return Default().Size() }

// SetDefaultSize replaces the process-wide pool with one of n tokens;
// n <= 0 restores the environment-derived default. Loops already running
// keep the pool they started with.
func SetDefaultSize(n int) {
	if n <= 0 {
		n = envSize()
	}
	defaultPool.Store(NewPool(n))
}

// For runs body over [0, n) on the default pool.
func For(n, grain int, body func(start, end int)) {
	Default().For(n, grain, body)
}

// ForCtx runs body over [0, n) on the default pool with cooperative
// cancellation (see Pool.ForCtx).
func ForCtx(ctx context.Context, n, grain int, body func(start, end int)) {
	Default().ForCtx(ctx, n, grain, body)
}
