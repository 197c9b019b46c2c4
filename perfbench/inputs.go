package main

import (
	"crypto/sha256"
	"encoding/binary"
	mrand "math/rand"
	"time"

	"zkvc"
	"zkvc/internal/wire"
)

// derive returns a non-zero seed for item i of the stream label under
// the run seed, so session i gets the same inputs however many sessions
// a run completes.
func derive(seed int64, label string, i int) int64 {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(i)))
	sum := sha256.Sum256(append([]byte(label+"\x00"), buf[:]...))
	if v := int64(binary.BigEndian.Uint64(sum[:8]) >> 1); v != 0 {
		return v
	}
	return 1
}

// statement is one matmul input pair with its int8-range values kept for
// the reference product.
type statement struct {
	x, w    *zkvc.Matrix
	xv, wv  []int64
	a, n, b int
}

// newStatement draws X [a×n] and W [n×b] with int8-range entries, like
// quantized tensors, from the derived stream label/i.
func newStatement(seed int64, label string, i, a, n, b int) statement {
	rng := mrand.New(mrand.NewSource(derive(seed, label, i)))
	draw := func(k int) []int64 {
		v := make([]int64, k)
		for j := range v {
			v[j] = int64(rng.Intn(256) - 128)
		}
		return v
	}
	st := statement{xv: draw(a * n), wv: draw(n * b), a: a, n: n, b: b}
	st.x = zkvc.MatrixFromInt64(a, n, st.xv)
	st.w = zkvc.MatrixFromInt64(n, b, st.wv)
	return st
}

// checkY reports whether y is X·W computed independently in int64.
func (st statement) checkY(y *zkvc.Matrix) bool {
	if y == nil || y.Rows != st.a || y.Cols != st.b {
		return false
	}
	got := zkvc.MatrixToInt64(y)
	for i := 0; i < st.a; i++ {
		for j := 0; j < st.b; j++ {
			var acc int64
			for k := 0; k < st.n; k++ {
				acc += st.xv[i*st.n+k] * st.wv[k*st.b+j]
			}
			if got[i*st.b+j] != acc {
				return false
			}
		}
	}
	return true
}

// matmulWire returns the wire size of a proof and the SHA-256 of its
// encoding with the wall-clock timings zeroed (the bytes that must be
// identical from run to run).
func matmulWire(p *zkvc.MatMulProof) (int, [32]byte) {
	c := *p
	c.Timings = zkvc.Timings{}
	b := wire.EncodeMatMulProof(&c)
	return len(b), sha256.Sum256(b)
}

// repeatSetup runs one set-up step at least 5 times and until 1 s has
// passed (at most 201 times) and returns the median time in seconds.
func repeatSetup(step func() (time.Duration, error)) (float64, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < 5 || (time.Since(start) < time.Second && len(ds) < 201) {
		d, err := step()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return medianDur(ds), nil
}
