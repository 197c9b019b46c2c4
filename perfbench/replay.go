package main

// The traced pass times the layers below the Engine by replaying each
// backend's own sequence of exported calls on the session's inputs, with
// a span around every call. The replays mirror spartan.Prove/Verify,
// groth16.Prove/Verify and the zkvc matmul wrappers step for step; the
// traced pass checks once per run that a replayed proof is byte-identical
// to the Engine's, so a replay that drifts from the program fails the run.

import (
	"errors"
	"fmt"
	mrand "math/rand"

	"zkvc"
	"zkvc/internal/arena"
	"zkvc/internal/crpc"
	"zkvc/internal/curve"
	"zkvc/internal/ff"
	"zkvc/internal/groth16"
	"zkvc/internal/matrix"
	"zkvc/internal/mle"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/qap"
	"zkvc/internal/r1cs"
	"zkvc/internal/spartan"
	"zkvc/internal/sumcheck"
	"zkvc/internal/transcript"
)

// spartanLabel is the Spartan transcript's protocol label.
const spartanLabel = "zkvc.spartan.v1"

// counts are the per-session work counters of a replay.
type counts struct {
	constraints, vars, codewordLen, domainSize, msmPoints int
}

// tracer records the spans of one session under a parent span.
type tracer struct {
	r       *recorder
	session int
	c       counts
}

func (t *tracer) call(name string, parent int, f func()) { t.r.call(name, parent, t.session, f) }

func logDim(n int) int {
	k := 0
	for (1 << k) < n {
		k++
	}
	return k
}

// statementSpans runs the prover-side statement work both backends
// share: Y = X·W, the W commitment and circuit synthesis at challenge z
// (per-statement when epochZ is nil).
func (t *tracer) statement(parent int, x, w *zkvc.Matrix, epochZ *ff.Fr) (*crpc.Statement, []byte, *crpc.Synthesis, error) {
	opts := zkvc.DefaultOptions()
	var stmt *crpc.Statement
	t.call("matrix.mul", parent, func() { stmt = &crpc.Statement{X: x, W: w, Y: matrix.Mul(x, w)} })
	var wc []byte
	t.call("crpc.wcommit", parent, func() { wc = crpc.WCommit(w) })
	var syn *crpc.Synthesis
	var err error
	t.call("crpc.synth", parent, func() {
		if epochZ != nil {
			syn, err = crpc.SynthesizeAt(stmt, *epochZ, opts)
		} else {
			syn, err = crpc.Synthesize(stmt, opts)
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	st := syn.Sys.Stats()
	t.c.constraints, t.c.vars = st.Constraints, st.Variables
	return stmt, wc, syn, nil
}

// proveSpartan replays Local.ProveMatMul on the Spartan backend.
func (t *tracer) proveSpartan(parent int, x, w *zkvc.Matrix) (*zkvc.MatMulProof, error) {
	stmt, wc, syn, err := t.statement(parent, x, w, nil)
	if err != nil {
		return nil, err
	}
	id := t.r.begin("spartan.prove", parent, t.session)
	sp, err := t.spartanProve(id, syn.Sys, syn.Assignment, pcs.DefaultParams())
	t.r.end(id)
	if err != nil {
		return nil, err
	}
	return &zkvc.MatMulProof{Backend: zkvc.Spartan, Opts: zkvc.DefaultOptions(), Y: stmt.Y, WCommit: wc, SpartanProof: sp}, nil
}

// sparse builds the three sparse matrix MLEs of sys, as spartan does.
func sparse(sys *r1cs.System) (a, b, c *mle.Sparse) {
	nCons := max(sys.NumConstraints(), 1)
	na, nb, nc := 0, 0, 0
	for q := range sys.Constraints {
		na += len(sys.Constraints[q].A)
		nb += len(sys.Constraints[q].B)
		nc += len(sys.Constraints[q].C)
	}
	ea := make([]mle.SparseEntry, 0, na)
	eb := make([]mle.SparseEntry, 0, nb)
	ec := make([]mle.SparseEntry, 0, nc)
	for q := range sys.Constraints {
		for _, t := range sys.Constraints[q].A {
			ea = append(ea, mle.SparseEntry{Row: q, Col: int(t.V), Val: t.Coeff})
		}
		for _, t := range sys.Constraints[q].B {
			eb = append(eb, mle.SparseEntry{Row: q, Col: int(t.V), Val: t.Coeff})
		}
		for _, t := range sys.Constraints[q].C {
			ec = append(ec, mle.SparseEntry{Row: q, Col: int(t.V), Val: t.Coeff})
		}
	}
	return mle.NewSparse(ea, nCons, sys.NumVars), mle.NewSparse(eb, nCons, sys.NumVars), mle.NewSparse(ec, nCons, sys.NumVars)
}

// spartanProve replays spartan.Prove.
func (t *tracer) spartanProve(p int, sys *r1cs.System, z []ff.Fr, params pcs.Params) (*spartan.Proof, error) {
	var err error
	t.call("r1cs.satisfied", p, func() { err = sys.Satisfied(z) })
	if err != nil {
		return nil, err
	}
	sx, sy := logDim(sys.NumConstraints()), logDim(sys.NumVars)
	priv := arena.Frs(1 << sy)
	for i := sys.NumPublic; i < sys.NumVars; i++ {
		priv[i] = z[i]
	}
	var comm *pcs.Commitment
	var st *pcs.ProverState
	t.call("pcs.commit", p, func() { comm, st, err = pcs.Commit(priv, params) })
	if err != nil {
		return nil, err
	}
	t.c.codewordLen = comm.Rows * comm.Cols * params.Blowup
	t.c.domainSize = comm.Cols * params.Blowup

	tr := transcript.New(spartanLabel)
	tr.Append("comm", comm.Root[:])
	tr.AppendFrs("public", z[:sys.NumPublic])
	tau := tr.ChallengeFrs("tau", sx)
	az, bz, cz := arena.Frs(1<<sx), arena.Frs(1<<sx), arena.Frs(1<<sx)
	t.call("r1cs.eval_lc", p, func() {
		parallel.For(len(sys.Constraints), 512, func(start, end int) {
			for q := start; q < end; q++ {
				az[q] = r1cs.EvalLC(sys.Constraints[q].A, z)
				bz[q] = r1cs.EvalLC(sys.Constraints[q].B, z)
				cz[q] = r1cs.EvalLC(sys.Constraints[q].C, z)
			}
		})
	})
	eqTab, eqTab2 := arena.Frs(1<<sx), arena.Frs(1<<sx)
	t.call("mle.eq_table", p, func() {
		mle.EqTableInto(tau, eqTab)
		copy(eqTab2, eqTab)
	})
	var one, minusOne ff.Fr
	one.SetOne()
	minusOne.Neg(&one)
	ins1, err := sumcheck.NewInstance(sx, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{{NumVars: sx, Evals: eqTab2}, {NumVars: sx, Evals: az}, {NumVars: sx, Evals: bz}}},
		{Coeff: minusOne, Factors: []*mle.Dense{{NumVars: sx, Evals: eqTab}, {NumVars: sx, Evals: cz}}},
	})
	if err != nil {
		return nil, err
	}
	var sum1 *sumcheck.Proof
	var rx []ff.Fr
	var finals1 [][]ff.Fr
	t.call("sumcheck.prove", p, func() { sum1, rx, finals1 = sumcheck.Prove(ins1, tr) })
	va, vb, vc := finals1[0][1], finals1[0][2], finals1[1][1]
	for _, b := range [][]ff.Fr{az, bz, cz, eqTab, eqTab2} {
		arena.PutFrs(b)
	}
	tr.AppendFr("va", &va)
	tr.AppendFr("vb", &vb)
	tr.AppendFr("vc", &vc)

	rA, rB, rC := tr.ChallengeFr("rA"), tr.ChallengeFr("rB"), tr.ChallengeFr("rC")
	var ma, mb, mc *mle.Sparse
	t.call("mle.sparse", p, func() { ma, mb, mc = sparse(sys) })
	mzA, mzB, mzC := arena.Frs(1<<sy), arena.Frs(1<<sy), arena.Frs(1<<sy)
	t.call("mle.bind_rows", p, func() {
		ma.BindRowsInto(rx, mzA)
		mb.BindRowsInto(rx, mzB)
		mc.BindRowsInto(rx, mzC)
	})
	mz := arena.Frs(1 << sy)
	parallel.For(len(mz), 2048, func(start, end int) {
		var f ff.Fr
		for y := start; y < end; y++ {
			f.Mul(&rA, &mzA[y])
			mz[y].Add(&mz[y], &f)
			f.Mul(&rB, &mzB[y])
			mz[y].Add(&mz[y], &f)
			f.Mul(&rC, &mzC[y])
			mz[y].Add(&mz[y], &f)
		}
	})
	arena.PutFrs(mzA)
	arena.PutFrs(mzB)
	arena.PutFrs(mzC)
	zPad := arena.Frs(1 << sy)
	copy(zPad, z)
	ins2, err := sumcheck.NewInstance(sy, []sumcheck.Term{
		{Coeff: one, Factors: []*mle.Dense{{NumVars: sy, Evals: mz}, {NumVars: sy, Evals: zPad}}},
	})
	if err != nil {
		return nil, err
	}
	var sum2 *sumcheck.Proof
	var ry []ff.Fr
	t.call("sumcheck.prove", p, func() { sum2, ry, _ = sumcheck.Prove(ins2, tr) })
	arena.PutFrs(mz)
	arena.PutFrs(zPad)

	var privEval ff.Fr
	t.call("mle.eval", p, func() { privEval = (&mle.Dense{NumVars: sy, Evals: priv}).Eval(ry) })
	tr.AppendFr("priv.eval", &privEval)
	var opening *pcs.Opening
	t.call("pcs.open", p, func() { opening = st.Open(ry, tr) })
	arena.PutFrs(priv)
	st.Release()
	return &spartan.Proof{Comm: *comm, Sum1: sum1, VA: va, VB: vb, VC: vc, Sum2: sum2, PrivEval: privEval, Opening: opening}, nil
}

// publicWitness is [1, X entries, Y entries], the matmul verifier's view.
func publicWitness(x *zkvc.Matrix, proof *zkvc.MatMulProof) []ff.Fr {
	public := make([]ff.Fr, 1, 1+len(x.Data)+len(proof.Y.Data))
	public[0].SetOne()
	public = append(public, x.Data...)
	return append(public, proof.Y.Data...)
}

// verifySpartan replays Local.VerifyMatMul on a Spartan proof.
func (t *tracer) verifySpartan(parent int, x *zkvc.Matrix, proof *zkvc.MatMulProof) error {
	if proof.SpartanProof == nil || proof.Y == nil || proof.Y.Rows != x.Rows || len(proof.WCommit) != 32 {
		return fmt.Errorf("%w: malformed proof", zkvc.ErrVerification)
	}
	public := publicWitness(x, proof)
	var z ff.Fr
	t.call("crpc.derive_z", parent, func() { z = crpc.DeriveZFromCommit(x, proof.Y, proof.WCommit) })
	var sys *r1cs.System
	t.call("crpc.synth_shape", parent, func() { sys = crpc.SynthesizeShape(x.Rows, x.Cols, proof.Y.Cols, z, proof.Opts) })
	id := t.r.begin("spartan.verify", parent, t.session)
	err := t.spartanVerify(id, sys, proof.SpartanProof, public, pcs.DefaultParams())
	t.r.end(id)
	if err != nil {
		return fmt.Errorf("%w: %v", zkvc.ErrVerification, err)
	}
	return nil
}

var errReplayReject = errors.New("replayed verifier rejects")

// spartanVerify replays spartan.Verify.
func (t *tracer) spartanVerify(p int, sys *r1cs.System, proof *spartan.Proof, public []ff.Fr, params pcs.Params) error {
	if len(public) != sys.NumPublic || !public[0].IsOne() {
		return errReplayReject
	}
	sx, sy := logDim(sys.NumConstraints()), logDim(sys.NumVars)
	tr := transcript.New(spartanLabel)
	tr.Append("comm", proof.Comm.Root[:])
	tr.AppendFrs("public", public)
	tau := tr.ChallengeFrs("tau", sx)
	var zero ff.Fr
	var rx []ff.Fr
	var final1 ff.Fr
	var err error
	t.call("sumcheck.verify", p, func() { rx, final1, err = sumcheck.Verify(zero, sx, 3, proof.Sum1, tr) })
	if err != nil {
		return err
	}
	var eqv ff.Fr
	t.call("mle.eq_eval", p, func() { eqv = mle.EqEval(tau, rx) })
	var want ff.Fr
	want.Mul(&proof.VA, &proof.VB)
	want.Sub(&want, &proof.VC)
	want.Mul(&want, &eqv)
	if !want.Equal(&final1) {
		return errReplayReject
	}
	tr.AppendFr("va", &proof.VA)
	tr.AppendFr("vb", &proof.VB)
	tr.AppendFr("vc", &proof.VC)
	rA, rB, rC := tr.ChallengeFr("rA"), tr.ChallengeFr("rB"), tr.ChallengeFr("rC")
	var claim2, f ff.Fr
	for _, pr := range [][2]*ff.Fr{{&rA, &proof.VA}, {&rB, &proof.VB}, {&rC, &proof.VC}} {
		f.Mul(pr[0], pr[1])
		claim2.Add(&claim2, &f)
	}
	var ry []ff.Fr
	var final2 ff.Fr
	t.call("sumcheck.verify", p, func() { ry, final2, err = sumcheck.Verify(claim2, sy, 2, proof.Sum2, tr) })
	if err != nil {
		return err
	}
	var ma, mb, mc *mle.Sparse
	t.call("mle.sparse", p, func() { ma, mb, mc = sparse(sys) })
	var ea, eb, ec ff.Fr
	t.call("mle.sparse_eval", p, func() { ea, eb, ec = ma.Eval(rx, ry), mb.Eval(rx, ry), mc.Eval(rx, ry) })
	var vm ff.Fr
	for _, pr := range [][2]*ff.Fr{{&rA, &ea}, {&rB, &eb}, {&rC, &ec}} {
		f.Mul(pr[0], pr[1])
		vm.Add(&vm, &f)
	}
	pubEval := evalPublicPart(public, ry)
	var vz, prod ff.Fr
	vz.Add(&pubEval, &proof.PrivEval)
	prod.Mul(&vm, &vz)
	if !prod.Equal(&final2) {
		return errReplayReject
	}
	tr.AppendFr("priv.eval", &proof.PrivEval)
	t.call("pcs.verify_open", p, func() { err = pcs.VerifyOpen(&proof.Comm, ry, &proof.PrivEval, proof.Opening, params, tr) })
	return err
}

// evalPublicPart is Σ public[i]·eq(ry, bits(i)), as the Spartan verifier
// computes it.
func evalPublicPart(public []ff.Fr, ry []ff.Fr) ff.Fr {
	s := len(ry)
	var acc, term, one, f ff.Fr
	one.SetOne()
	for i := range public {
		term.Set(&public[i])
		for j := 0; j < s; j++ {
			if (i>>(s-1-j))&1 == 1 {
				f.Set(&ry[j])
			} else {
				f.Sub(&one, &ry[j])
			}
			term.Mul(&term, &f)
		}
		acc.Add(&acc, &term)
	}
	return acc
}

// msmG1 and msmG2 time one multi-scalar multiplication each.
func (t *tracer) msmG1(p int, points []curve.G1Affine, scalars []ff.Fr) curve.G1Jac {
	var out curve.G1Jac
	t.call("curve.msm_g1", p, func() { out = curve.MSMG1(points, scalars) })
	t.c.msmPoints += len(points)
	return out
}

func (t *tracer) msmG2(p int, points []curve.G2Affine, scalars []ff.Fr) curve.G2Jac {
	var out curve.G2Jac
	t.call("curve.msm_g2", p, func() { out = curve.MSMG2(points, scalars) })
	t.c.msmPoints += len(points)
	return out
}

// proveGroth16 replays MatMulProver.ProveWithCRS with a prover reseeded
// to rngSeed.
func (t *tracer) proveGroth16(parent int, crs *zkvc.CRS, x, w *zkvc.Matrix, rngSeed int64) (*zkvc.MatMulProof, error) {
	stmt, wc, syn, err := t.statement(parent, x, w, &crs.Z)
	if err != nil {
		return nil, err
	}
	id := t.r.begin("groth16.prove", parent, t.session)
	g, err := t.groth16Prove(id, syn.Sys, crs.G16PK, syn.Assignment, mrand.New(mrand.NewSource(rngSeed)))
	t.r.end(id)
	if err != nil {
		return nil, err
	}
	return &zkvc.MatMulProof{Backend: zkvc.Groth16, Opts: zkvc.DefaultOptions(), Y: stmt.Y, WCommit: wc,
		Epoch: crs.Epoch, G16Proof: g, G16VK: crs.G16VK}, nil
}

// groth16Prove replays groth16.Prove.
func (t *tracer) groth16Prove(p int, sys *r1cs.System, pk *groth16.ProvingKey, z []ff.Fr, rng *mrand.Rand) (*groth16.Proof, error) {
	var h []ff.Fr
	var err error
	t.call("qap.h", p, func() {
		d, derr := qap.Domain(sys)
		if derr != nil {
			err = derr
			return
		}
		t.c.domainSize = d.N
		h, err = qap.HCoefficients(sys, z, d)
	})
	if err != nil {
		return nil, err
	}
	var r, s ff.Fr
	r.SetPseudoRandom(rng)
	s.SetPseudoRandom(rng)

	aAcc := t.msmG1(p, pk.A, z)
	var proofA curve.G1Affine
	t.call("curve.ops", p, func() {
		aAcc.AddMixed(&pk.AlphaG1)
		var rdelta curve.G1Jac
		rdelta.FromAffine(&pk.DeltaG1)
		rdelta.ScalarMul(&rdelta, &r)
		aAcc.AddAssign(&rdelta)
		proofA = aAcc.ToAffine()
	})
	bAcc2 := t.msmG2(p, pk.B2, z)
	var proofB curve.G2Affine
	t.call("curve.ops", p, func() {
		bAcc2.AddMixed(&pk.BetaG2)
		var sdelta2 curve.G2Jac
		sdelta2.FromAffine(&pk.DeltaG2)
		sdelta2.ScalarMul(&sdelta2, &s)
		bAcc2.AddAssign(&sdelta2)
		proofB = bAcc2.ToAffine()
	})
	bAcc1 := t.msmG1(p, pk.B1, z)
	t.call("curve.ops", p, func() {
		bAcc1.AddMixed(&pk.BetaG1)
		var sdelta1 curve.G1Jac
		sdelta1.FromAffine(&pk.DeltaG1)
		sdelta1.ScalarMul(&sdelta1, &s)
		bAcc1.AddAssign(&sdelta1)
	})
	cAcc := t.msmG1(p, pk.K, z[sys.NumPublic:])
	hMSM := t.msmG1(p, pk.H, h[:len(pk.H)])
	arena.PutFrs(h)
	var proofC curve.G1Affine
	t.call("curve.ops", p, func() {
		cAcc.AddAssign(&hMSM)
		var g curve.G1Jac
		g.FromAffine(&proofA)
		g.ScalarMul(&g, &s)
		cAcc.AddAssign(&g)
		g.Set(&bAcc1)
		g.ScalarMul(&g, &r)
		cAcc.AddAssign(&g)
		var rs ff.Fr
		rs.Mul(&r, &s)
		rs.Neg(&rs)
		g.FromAffine(&pk.DeltaG1)
		g.ScalarMul(&g, &rs)
		cAcc.AddAssign(&g)
		proofC = cAcc.ToAffine()
	})
	return &groth16.Proof{A: proofA, B: proofB, C: proofC}, nil
}

// verifyGroth16 replays CRS.Verify on a Groth16 epoch proof.
func (t *tracer) verifyGroth16(parent int, crs *zkvc.CRS, x *zkvc.Matrix, proof *zkvc.MatMulProof) error {
	if proof.G16Proof == nil || proof.Y == nil || string(proof.Epoch) != string(crs.Epoch) ||
		x.Rows != crs.Shape.Rows || x.Cols != crs.Shape.Inner || proof.Y.Rows != crs.Shape.Rows ||
		proof.Y.Cols != crs.Shape.Cols || len(proof.WCommit) != 32 {
		return fmt.Errorf("%w: malformed proof", zkvc.ErrVerification)
	}
	public := publicWitness(x, proof)
	vk := crs.G16VK
	id := t.r.begin("groth16.verify", parent, t.session)
	defer t.r.end(id)
	if len(public) != len(vk.IC) {
		return fmt.Errorf("%w: public witness length", zkvc.ErrVerification)
	}
	lJac := t.msmG1(id, vk.IC, public)
	l := lJac.ToAffine()
	var negAlpha, negL, negC curve.G1Affine
	negAlpha.Neg(&vk.AlphaG1)
	negL.Neg(&l)
	negC.Neg(&proof.G16Proof.C)
	var ok bool
	t.call("curve.pairing_check", id, func() {
		ok = curve.PairingCheck(
			[]curve.G1Affine{proof.G16Proof.A, negAlpha, negL, negC},
			[]curve.G2Affine{proof.G16Proof.B, vk.BetaG2, vk.GammaG2, vk.DeltaG2},
		)
	})
	if !ok {
		return fmt.Errorf("%w: %v", zkvc.ErrVerification, groth16.ErrInvalidProof)
	}
	return nil
}
