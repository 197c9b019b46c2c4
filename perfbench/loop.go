package main

import (
	"runtime"
	"sync"
	"time"
)

// heapAllocated reports the process's cumulative heap allocation.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// closedLoop runs one client that sends session i+1 only after session i
// completes, for at least dur and at least fingerprintSessions sessions
// when first is 0. It returns the sessions, the wall-clock time and the
// heap bytes allocated meanwhile.
func closedLoop(dur time.Duration, first int, fn func(i int) session) ([]session, time.Duration, uint64) {
	a0 := heapAllocated()
	start := time.Now()
	var ss []session
	for i := first; time.Since(start) < dur || i < fingerprintSessions; i++ {
		ss = append(ss, fn(i))
	}
	return ss, time.Since(start), heapAllocated() - a0
}

// loadStats describes how closely an open loop kept its schedule.
type loadStats struct {
	lag         []float64 // per session: actual send − scheduled send, seconds
	inflightMax int
}

// openLoop schedules session i at start + i/rate regardless of how the
// system keeps up, with at most slots sessions in flight (one connection
// each). fn receives the scheduled send time, from which latency is
// measured, so a stall also counts against the sessions queued behind it.
func openLoop(dur time.Duration, rate float64, slots, first int, fn func(i int, due time.Time) session) ([]session, time.Duration, uint64, loadStats) {
	n := max(int(dur.Seconds()*rate), fingerprintSessions)
	out := make([]session, n)
	ls := loadStats{lag: make([]float64, n)}
	sem := make(chan struct{}, slots)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inflight int
	)
	a0 := heapAllocated()
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		ls.lag[i] = time.Since(due).Seconds()
		mu.Lock()
		inflight++
		ls.inflightMax = max(ls.inflightMax, inflight)
		mu.Unlock()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = fn(first+i, due)
			mu.Lock()
			inflight--
			mu.Unlock()
			<-sem
		}(i)
	}
	wg.Wait()
	return out, time.Since(start), heapAllocated() - a0, ls
}
