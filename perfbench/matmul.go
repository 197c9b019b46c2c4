package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"zkvc"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
)

// epoch is the shape-epoch label of the Groth16 CRS.
var epoch = []byte("perfbench-epoch")

// matmulBench is one closed-loop matmul workload: a shape, a backend's
// Engine-level session and its traced replay.
type matmulBench struct {
	label   string
	a, n, b int
	// setup prepares the backend once and returns the time it took.
	setup func() (time.Duration, error)
	// prove and verify are the Engine-level calls of a session.
	prove  func(ctx context.Context, st statement, i int) (*zkvc.MatMulProof, error)
	verify func(ctx context.Context, x *zkvc.Matrix, p *zkvc.MatMulProof) error
	// replayProve and replayVerify are the traced replays of the same.
	replayProve  func(t *tracer, parent int, st statement, i int) (*zkvc.MatMulProof, error)
	replayVerify func(t *tracer, parent int, x *zkvc.Matrix, p *zkvc.MatMulProof) error
	// layerMetrics adds the backend's per-layer metrics.
	layerMetrics func(views []sessionView, c counts, setupS float64, layers map[string]float64)
}

func runMatMulSpartan(ctx context.Context, cfg config) (*runOutput, error) {
	const a, n, b = 49, 64, 128 // Fig. 3 shape
	proverSeed := func(i int) int64 { return derive(cfg.seed, "spartan-prover", i) }
	return runMatMul(ctx, cfg, &matmulBench{
		label: "matmul-spartan", a: a, n: n, b: b,
		// Spartan's Setup only derives the epoch challenge, a few
		// microseconds, so one sample is the mean over a batch of calls.
		setup: func() (time.Duration, error) {
			const batch = 100
			p := zkvc.NewMatMulProver(zkvc.Spartan, zkvc.DefaultOptions())
			start := time.Now()
			for k := 0; k < batch; k++ {
				if _, err := p.Setup(a, n, b, epoch); err != nil {
					return 0, err
				}
			}
			return time.Since(start) / batch, nil
		},
		prove: func(ctx context.Context, st statement, i int) (*zkvc.MatMulProof, error) {
			eng := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
			eng.Seed = proverSeed(i)
			return eng.ProveMatMul(ctx, st.x, st.w)
		},
		verify: func(ctx context.Context, x *zkvc.Matrix, p *zkvc.MatMulProof) error {
			return zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions()).VerifyMatMul(ctx, x, p)
		},
		replayProve: func(t *tracer, parent int, st statement, _ int) (*zkvc.MatMulProof, error) {
			return t.proveSpartan(parent, st.x, st.w)
		},
		replayVerify: func(t *tracer, parent int, x *zkvc.Matrix, p *zkvc.MatMulProof) error {
			return t.verifySpartan(parent, x, p)
		},
		layerMetrics: func(views []sessionView, c counts, _ float64, l map[string]float64) {
			l["spartan.prove_s"] = medianOf(views, "spartan.prove")
			l["spartan.verify_s"] = medianOf(views, "spartan.verify")
			l["pcs.commit_s"] = medianOf(views, "pcs.commit")
			l["pcs.open_s"] = medianOf(views, "pcs.open")
			l["pcs.verify_open_s"] = medianOf(views, "pcs.verify_open")
			l["pcs.codeword_len"] = float64(c.codewordLen)
			l["sumcheck.prove_s"] = medianOf(views, "sumcheck.prove")
			l["sumcheck.verify_s"] = medianOf(views, "sumcheck.verify")
			l["mle.bind_rows_s"] = medianOf(views, "mle.bind_rows")
			l["r1cs.eval_lc_s"] = medianOf(views, "r1cs.eval_lc")
		},
	})
}

func runMatMulGroth16(ctx context.Context, cfg config) (*runOutput, error) {
	const a, n, b = 49, 32, 64 // Fig. 6 at d=64
	proverSeed := func(i int) int64 { return derive(cfg.seed, "groth16-prover", i) }
	var crs *zkvc.CRS
	return runMatMul(ctx, cfg, &matmulBench{
		label: "matmul-groth16", a: a, n: n, b: b,
		setup: func() (time.Duration, error) {
			p := zkvc.NewMatMulProver(zkvc.Groth16, zkvc.DefaultOptions())
			p.Reseed(derive(cfg.seed, "groth16-setup", 0))
			start := time.Now()
			c, err := p.Setup(a, n, b, epoch)
			d := time.Since(start)
			crs = c
			return d, err
		},
		prove: func(ctx context.Context, st statement, i int) (*zkvc.MatMulProof, error) {
			p := zkvc.NewMatMulProver(zkvc.Groth16, zkvc.DefaultOptions())
			p.Reseed(proverSeed(i))
			return p.ProveWithCRSContext(ctx, crs, st.x, st.w)
		},
		verify: func(_ context.Context, x *zkvc.Matrix, p *zkvc.MatMulProof) error {
			return crs.Verify(x, p)
		},
		replayProve: func(t *tracer, parent int, st statement, i int) (*zkvc.MatMulProof, error) {
			return t.proveGroth16(parent, crs, st.x, st.w, proverSeed(i))
		},
		replayVerify: func(t *tracer, parent int, x *zkvc.Matrix, p *zkvc.MatMulProof) error {
			return t.verifyGroth16(parent, crs, x, p)
		},
		layerMetrics: func(views []sessionView, c counts, setupS float64, l map[string]float64) {
			l["groth16.setup_s"] = setupS
			l["groth16.prove_s"] = medianOf(views, "groth16.prove")
			l["groth16.verify_s"] = medianOf(views, "groth16.verify")
			l["qap.h_s"] = medianOf(views, "qap.h")
			l["qap.domain_size"] = float64(c.domainSize)
			l["curve.msm_g1_s"] = medianOf(views, "curve.msm_g1")
			l["curve.msm_g2_s"] = medianOf(views, "curve.msm_g2")
			l["curve.pairing_check_s"] = medianOf(views, "curve.pairing_check")
			l["curve.msm_points"] = float64(c.msmPoints)
		},
	})
}

// engineSession runs one Engine-level session on statement i and checks
// its output against the independent int64 product.
func (mb *matmulBench) engineSession(ctx context.Context, seed int64, i int) (session, *zkvc.MatMulProof) {
	st := newStatement(seed, mb.label, i, mb.a, mb.n, mb.b)
	s := session{idx: i}
	start := time.Now()
	proof, err := mb.prove(ctx, st, i)
	s.prove = time.Since(start)
	if err != nil {
		s.err = fmt.Errorf("session %d: prove: %w", i, err)
		return s, nil
	}
	start = time.Now()
	err = mb.verify(ctx, st.x, proof)
	s.verify = time.Since(start)
	switch {
	case err != nil:
		s.err = fmt.Errorf("session %d: verify: %w", i, err)
	case !st.checkY(proof.Y):
		s.err = fmt.Errorf("session %d: proved Y differs from X·W", i)
	}
	s.bytes, s.digest = matmulWire(proof)
	return s, proof
}

// tracedSession runs session i as the traced replay.
func (mb *matmulBench) tracedSession(r *recorder, seed int64, i int) (session, counts, uint64) {
	st := newStatement(seed, mb.label, i, mb.a, mb.n, mb.b)
	t := &tracer{r: r, session: i}
	s := session{idx: i}
	ml0, _ := curve.PairingCounts()
	root := r.begin("session", -1, i)
	pid := r.begin("prove", root, i)
	start := time.Now()
	proof, err := mb.replayProve(t, pid, st, i)
	s.prove = time.Since(start)
	r.end(pid)
	if err == nil {
		vid := r.begin("verify", root, i)
		start = time.Now()
		err = mb.replayVerify(t, vid, st.x, proof)
		s.verify = time.Since(start)
		r.end(vid)
	}
	r.end(root)
	ml1, _ := curve.PairingCounts()
	switch {
	case err != nil:
		s.err = fmt.Errorf("traced session %d: %w", i, err)
	case !st.checkY(proof.Y):
		s.err = fmt.Errorf("traced session %d: proved Y differs from X·W", i)
	default:
		s.bytes, s.digest = matmulWire(proof)
	}
	return s, t.c, ml1 - ml0
}

// canary tampers one Y entry of a valid proof; the client's verifier
// must reject it with zkvc.ErrVerification.
func canary(ctx context.Context, verify func(context.Context, *zkvc.Matrix, *zkvc.MatMulProof) error, x *zkvc.Matrix, proof *zkvc.MatMulProof) error {
	bad := *proof
	bad.Y = proof.Y.Clone()
	var one ff.Fr
	one.SetOne()
	bad.Y.Data[0].Add(&bad.Y.Data[0], &one)
	err := verify(ctx, x, &bad)
	if err == nil {
		return errors.New("a proof with a tampered Y entry was accepted")
	}
	if !errors.Is(err, zkvc.ErrVerification) {
		return fmt.Errorf("tampered proof rejected without zkvc.ErrVerification: %v", err)
	}
	return nil
}

func runMatMul(ctx context.Context, cfg config, mb *matmulBench) (*runOutput, error) {
	o := &runOutput{layers: map[string]float64{}}
	var err error
	if o.setupS, err = repeatSetup(mb.setup); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Warm-up session (not measured): fills the arenas and shared NTT
	// domains, and supplies the proof the canary tampers with.
	warm, warmProof := mb.engineSession(ctx, cfg.seed, -1)
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	st := newStatement(cfg.seed, mb.label, -1, mb.a, mb.n, mb.b)
	o.canary = canary(ctx, mb.verify, st.x, warmProof)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	ss, wall, alloc := closedLoop(dur, 0, func(i int) session {
		s, _ := mb.engineSession(ctx, cfg.seed, i)
		return s
	})
	o.e2e = summarize(ss, wall, alloc)
	o.fp, _ = fingerprint(ss)
	if !cfg.trace {
		return o, nil
	}

	// Traced pass. The replay of the warm-up statement must reproduce the
	// Engine's proof byte for byte, or the replayed layers are not the
	// program's.
	rec := newRecorder()
	if rs, _, _ := mb.tracedSession(nil, cfg.seed, -1); rs.err != nil || rs.digest != warm.digest {
		o.checks = fmt.Errorf("replayed proof differs from the Engine's (replay error: %v)", rs.err)
	}
	var c counts
	var pairings []float64
	traced, _, _ := closedLoop(dur, len(ss), func(i int) session {
		s, sc, ml := mb.tracedSession(rec, cfg.seed, i)
		c = sc
		pairings = append(pairings, float64(ml))
		return s
	})
	o.e2e.count(traced)
	views := rec.sessions("session")
	l := o.layers
	l["matrix.mul_s"] = medianOf(views, "matrix.mul")
	l["crpc.wcommit_s"] = medianOf(views, "crpc.wcommit")
	l["crpc.synth_s"] = medianOf(views, "crpc.synth")
	l["crpc.constraints"] = float64(c.constraints)
	l["crpc.vars"] = float64(c.vars)
	l["curve.pairings"] = median(pairings)
	mb.layerMetrics(views, c, o.setupS, l)
	l["poly.ntt_s"] = nttSeconds(c.domainSize)
	microFF(l)
	l["trace.overhead_frac"] = median(sessionSeconds(traced))/median(sessionSeconds(ss)) - 1
	l["trace.coverage_frac"] = coverage(views)
	o.traceTo, err = rec.write(cfg.traceOut, fmt.Sprintf("%s-seed%d.jsonl", mb.label, cfg.seed))
	return o, err
}
