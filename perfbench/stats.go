package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func medianDur(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = d.Seconds()
	}
	return median(vals)
}

// session is the outcome of one prove followed by the client's verify.
type session struct {
	idx    int
	prove  time.Duration // request (or scheduled send) to complete proof
	verify time.Duration // the client's verification
	bytes  int           // wire size of the proof or report
	digest [32]byte      // SHA-256 of the proof bytes with timings zeroed
	err    error         // refused, errored, failed to verify or wrong output
}

// fingerprintSessions is how many leading sessions (by index) the output
// fingerprint covers. Every run completes at least this many, so runs of
// any length hash the same proofs.
const fingerprintSessions = 3

// endToEnd holds the user-visible metrics of a set of sessions.
type endToEnd struct {
	proveP50, proveP90, verifyP50, verifyP90 float64
	sessionsPerS, proofBytes, allocMB        float64
	attempted, failed                        int
}

// summarize computes the end-to-end metrics. Latency percentiles are
// over verified sessions; a failed session counts in failed only.
func summarize(ss []session, wall time.Duration, allocBytes uint64) endToEnd {
	var e endToEnd
	var prove, verify []float64
	var bytes float64
	for _, s := range ss {
		e.attempted++
		if s.err != nil {
			e.failed++
			continue
		}
		prove = append(prove, s.prove.Seconds())
		verify = append(verify, s.verify.Seconds())
		bytes += float64(s.bytes)
	}
	ok := float64(len(prove))
	e.proveP50, e.proveP90 = quantile(prove, 0.5), quantile(prove, 0.9)
	e.verifyP50, e.verifyP90 = quantile(verify, 0.5), quantile(verify, 0.9)
	e.sessionsPerS = ok / wall.Seconds()
	e.proofBytes = bytes / ok
	e.allocMB = float64(allocBytes) / (1 << 20) / float64(e.attempted)
	return e
}

// count adds sessions to attempted and failed without changing the
// latency figures (the traced half of a --trace 1 run).
func (e *endToEnd) count(ss []session) {
	for _, s := range ss {
		e.attempted++
		if s.err != nil {
			e.failed++
		}
	}
}

// sessionSeconds returns each session's prove + verify time.
func sessionSeconds(ss []session) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = (s.prove + s.verify).Seconds()
	}
	return out
}

// fingerprint hashes the digests of the first fingerprintSessions
// sessions in index order; ok is false if one of them is missing or
// failed.
func fingerprint(ss []session) (string, bool) {
	byIdx := map[int]session{}
	for _, s := range ss {
		byIdx[s.idx] = s
	}
	h := sha256.New()
	for i := 0; i < fingerprintSessions; i++ {
		s, found := byIdx[i]
		if !found || s.err != nil {
			return "", false
		}
		h.Write(s.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil)), true
}
