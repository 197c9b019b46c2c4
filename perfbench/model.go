package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"zkvc"
	"zkvc/internal/nn"
	"zkvc/internal/pcs"
	"zkvc/internal/server"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// modelRate is the open-loop arrival rate of model-service, in sessions
// per second: about half of what nproc closed-loop clients complete on
// the 2-CPU reference machine (README.md).
const modelRate = 1.0

// modelSamples is how many traced sessions the post-run layer replays
// (Local re-prove, local verifies, wire round trips) are taken from.
const modelSamples = 3

// service is an in-process proving service on loopback.
type service struct {
	srv    *server.Server
	http   *http.Server
	served chan struct{}
	client *server.Client
}

func startService(ctx context.Context, cfg server.Config) (*service, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.http.Serve(ln)
	}()
	s.client = server.NewClient("http://" + ln.Addr().String())
	if err := s.client.Healthz(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// then drains the proving service.
func (s *service) stop() {
	s.http.Close()
	<-s.served
	s.srv.Close()
}

// modelBench is the model-service workload's state.
type modelBench struct {
	seed   int64
	model  *nn.Model
	svc    *service
	local  *zkvc.Local // in-process Engine with the service's seed
	rec    *recorder
	mu     sync.Mutex
	kept   map[int]*modelSession // traced sessions kept for the layer replays
	keepLo int                   // first traced session index
}

// modelSession is what a traced session leaves for the layer replays.
type modelSession struct {
	req *zkvc.ModelRequest
	rep *zkvc.Report
}

// reportWire returns the wire size of a report and the SHA-256 of its
// encoding with every op's wall-clock timings zeroed.
func reportWire(rep *zkvc.Report) (int, [32]byte) {
	c := *rep
	c.Ops = append([]zkml.OpProof(nil), rep.Ops...)
	for i := range c.Ops {
		c.Ops[i].Synthesis, c.Ops[i].Setup, c.Ops[i].Prove, c.Ops[i].Verify = 0, 0, 0, 0
	}
	b := wire.EncodeReport(&c)
	return len(b), sha256.Sum256(b)
}

// request captures the forward pass of session i's input.
func (mb *modelBench) request(i, parent int) *zkvc.ModelRequest {
	x := mb.model.RandomInput(mrand.New(mrand.NewSource(derive(mb.seed, "model-input", i))))
	tr := &nn.Trace{Capture: true}
	mb.rec.call("nn.forward", parent, i, func() { mb.model.Forward(x, tr) })
	return &zkvc.ModelRequest{Backend: zkvc.Spartan, ProveNonlinear: true, Cfg: mb.model.Cfg, Trace: tr}
}

// session proves session i's forward pass through the service, then has
// the service verify the report in aggregate mode. Latency counts from
// the scheduled send time due.
func (mb *modelBench) session(ctx context.Context, i int, due time.Time) session {
	s := session{idx: i}
	root := mb.rec.begin("session", -1, i)
	defer mb.rec.end(root)
	req := mb.request(i, root)
	var rep *zkvc.Report
	var err error
	mb.rec.call("server.prove", root, i, func() { rep, err = mb.svc.client.ProveModel(ctx, req).Report() })
	s.prove = time.Since(due)
	if err != nil {
		s.err = fmt.Errorf("session %d: prove: %w", i, err)
		return s
	}
	start := time.Now()
	mb.rec.call("server.verify", root, i, func() {
		err = mb.svc.client.VerifyModel(ctx, rep, zkvc.VerifyOptions{Mode: zkvc.VerifyAggregate})
	})
	s.verify = time.Since(start)
	plan, perr := zkml.PlanTrace(req.Trace, zkml.Options{ProveNonlinear: true})
	switch {
	case err != nil:
		s.err = fmt.Errorf("session %d: verify: %w", i, err)
	case perr != nil || len(rep.Ops) != len(plan) || rep.Model != mb.model.Cfg.Name:
		s.err = fmt.Errorf("session %d: report has %d ops for model %q, want %d for %q",
			i, len(rep.Ops), rep.Model, len(plan), mb.model.Cfg.Name)
	}
	s.bytes, s.digest = reportWire(rep)
	if mb.rec != nil && s.err == nil {
		mb.mu.Lock()
		mb.kept[i] = &modelSession{req: req, rep: rep}
		mb.mu.Unlock()
	}
	return s
}

// modelCanary flips one op's public input in a valid report: the service
// and a local aggregate verifier must both reject it with
// zkvc.ErrVerification.
func (mb *modelBench) canary(ctx context.Context, rep *zkvc.Report) error {
	bad := *rep
	bad.Ops = append([]zkml.OpProof(nil), rep.Ops...)
	k := len(bad.Ops) / 2
	bad.Ops[k].Public = append(bad.Ops[k].Public[:0:0], bad.Ops[k].Public...)
	zkml.TamperPublic(&bad, k)
	for name, verify := range map[string]func() error{
		"service": func() error {
			return mb.svc.client.VerifyModel(ctx, &bad, zkvc.VerifyOptions{Mode: zkvc.VerifyAggregate})
		},
		"local": func() error { return mb.local.VerifyModel(ctx, &bad, zkvc.VerifyOptions{Mode: zkvc.VerifyAggregate}) },
	} {
		err := verify()
		if err == nil {
			return fmt.Errorf("%s verifier accepted a report with a tampered public input", name)
		}
		if !errors.Is(err, zkvc.ErrVerification) {
			return fmt.Errorf("%s verifier rejected the tampered report without zkvc.ErrVerification: %v", name, err)
		}
	}
	return nil
}

func runModelService(ctx context.Context, cfg config) (*runOutput, error) {
	o := &runOutput{layers: map[string]float64{}}
	mb := &modelBench{seed: cfg.seed, kept: map[int]*modelSession{}}
	scfg := server.DefaultConfig()
	scfg.Seed = derive(cfg.seed, "server", 0)
	mcfg := nn.TinyConfig("perfbench-tiny", nn.MixerSoftmax)
	var err error
	o.setupS, err = repeatSetup(func() (time.Duration, error) {
		if mb.svc != nil {
			mb.svc.stop()
			mb.svc = nil
		}
		start := time.Now()
		svc, err := startService(ctx, scfg)
		if err != nil {
			return 0, err
		}
		mb.svc = svc
		mb.model, err = nn.NewModel(mcfg, derive(cfg.seed, "model-weights", 0))
		return time.Since(start), err
	})
	if mb.svc != nil {
		defer mb.svc.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	mb.local = &zkvc.Local{Backend: zkvc.Spartan, Circuit: scfg.Opts, Seed: scfg.Seed}

	// Warm-up session (not measured); its report feeds the canary.
	warmReq := mb.request(-1, -1)
	warmRep, err := mb.svc.client.ProveModel(ctx, warmReq).Report()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := mb.svc.client.VerifyModel(ctx, warmRep, zkvc.VerifyOptions{Mode: zkvc.VerifyAggregate}); err != nil {
		return nil, fmt.Errorf("warm-up verify: %w", err)
	}
	o.canary = mb.canary(ctx, warmRep)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	slots := runtime.NumCPU()
	ss, wall, alloc, load := openLoop(dur, modelRate, slots, 0, func(i int, due time.Time) session {
		return mb.session(ctx, i, due)
	})
	o.e2e = summarize(ss, wall, alloc)
	o.fp, _ = fingerprint(ss)
	if !cfg.trace {
		return o, nil
	}
	l := o.layers
	l["loadgen.lag_p90_s"] = quantile(load.lag, 0.9)
	l["loadgen.inflight_max"] = float64(load.inflightMax)

	// Traced pass: the same open loop with spans, and the service's
	// metrics sampled alongside.
	mb.rec = newRecorder()
	mb.keepLo = len(ss)
	before, err := mb.svc.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	stopSampling := make(chan struct{})
	sampled := make(chan []server.Snapshot)
	go func() {
		var snaps []server.Snapshot
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				sampled <- snaps
				return
			case <-tick.C:
				if s, err := mb.svc.client.Metrics(ctx); err == nil {
					snaps = append(snaps, s)
				}
			}
		}
	}()
	traced, _, _, _ := openLoop(dur, modelRate, slots, len(ss), func(i int, due time.Time) session {
		return mb.session(ctx, i, due)
	})
	close(stopSampling)
	snaps := <-sampled
	after, err := mb.svc.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	o.e2e.count(traced)
	var queuedMax, inUse float64
	for _, s := range snaps {
		queuedMax = max(queuedMax, float64(s.ModelOpsQueued))
		inUse += float64(s.ParallelInUse) / float64(len(snaps))
	}
	l["server.model_ops_queued_max"] = queuedMax
	l["server.parallel_in_use_mean"] = inUse
	l["server.stream_stall_s"] = time.Duration(after.StreamStallNanos-before.StreamStallNanos).Seconds() / float64(len(traced))
	l["server.admission_rejects"] = float64(after.AdmissionRejects - before.AdmissionRejects)

	views := mb.rec.sessions("session")
	l["nn.forward_s"] = medianOf(views, "nn.forward")
	l["trace.overhead_frac"] = median(sessionSeconds(traced))/median(sessionSeconds(ss)) - 1
	l["trace.coverage_frac"] = coverage(views)
	mb.opLayers(l)
	if o.checks = mb.replayLayers(ctx, l); o.checks != nil {
		return o, nil
	}
	microFF(l)
	o.traceTo, err = mb.rec.write(cfg.traceOut, fmt.Sprintf("model-service-seed%d.jsonl", cfg.seed))
	return o, err
}

// opLayers reads the per-op numbers the kept reports carry: each op's
// synthesis and Spartan prove/verify times, circuit sizes and
// commitment shapes.
func (mb *modelBench) opLayers(l map[string]float64) {
	var ops, constraints, vars, codeword, ntt, spProve, spVerify []float64
	opProve := map[nn.OpKind][]float64{}
	opSynth := map[nn.OpKind][]float64{}
	params := pcs.DefaultParams()
	for _, ks := range mb.kept {
		rep := ks.rep
		prove := map[nn.OpKind]float64{}
		synth := map[nn.OpKind]float64{}
		var cons, vs, cw, maxRow, spp, spv float64
		for _, op := range rep.Ops {
			prove[op.Kind] += op.Prove.Seconds()
			synth[op.Kind] += op.Synthesis.Seconds()
			spp += op.Prove.Seconds()
			spv += op.Verify.Seconds()
			if op.Kind == nn.OpMatMul {
				cons += float64(op.Stats.Constraints)
				vs += float64(op.Stats.Variables)
			}
			if op.Spartan != nil {
				c := op.Spartan.Comm
				cw += float64(c.Rows * c.Cols * params.Blowup)
				maxRow = max(maxRow, float64(c.Cols*params.Blowup))
			}
		}
		for _, k := range []nn.OpKind{nn.OpMatMul, nn.OpSoftmax, nn.OpGELU} {
			opProve[k] = append(opProve[k], prove[k])
			opSynth[k] = append(opSynth[k], synth[k])
		}
		ops = append(ops, float64(len(rep.Ops)))
		constraints = append(constraints, cons)
		vars = append(vars, vs)
		codeword = append(codeword, cw)
		ntt = append(ntt, maxRow)
		spProve = append(spProve, spp)
		spVerify = append(spVerify, spv)
	}
	l["zkml.ops"] = median(ops)
	for k, name := range map[nn.OpKind]string{nn.OpMatMul: "matmul", nn.OpSoftmax: "softmax", nn.OpGELU: "gelu"} {
		l["zkml.op_prove_s."+name] = median(opProve[k])
		l["zkml.op_synth_s."+name] = median(opSynth[k])
	}
	l["crpc.synth_s"] = l["zkml.op_synth_s.matmul"]
	l["crpc.constraints"] = median(constraints)
	l["crpc.vars"] = median(vars)
	l["pcs.codeword_len"] = median(codeword)
	l["spartan.prove_s"] = median(spProve)
	l["spartan.verify_s"] = median(spVerify)
	l["poly.ntt_s"] = nttSeconds(int(median(ntt)))
}

// replayLayers times, on each kept session one after another with the
// service otherwise idle: planning, the service's prove against a Local
// prove of the same trace (whose report must be byte-identical), the two
// local verify modes and the wire round trip of the report.
func (mb *modelBench) replayLayers(ctx context.Context, l map[string]float64) error {
	var plan, overhead, agg, perOp, enc, dec, size []float64
	for i := mb.keepLo; i < mb.keepLo+modelSamples; i++ {
		ks := mb.kept[i]
		if ks == nil {
			return fmt.Errorf("traced session %d did not complete", i)
		}
		start := time.Now()
		if _, err := zkml.PlanTrace(ks.req.Trace, zkml.Options{ProveNonlinear: true}); err != nil {
			return err
		}
		plan = append(plan, since(start))

		start = time.Now()
		svcRep, err := mb.svc.client.ProveModel(ctx, ks.req).Report()
		svcS := since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		localRep, err := mb.local.ProveModel(ctx, ks.req).Report()
		localS := since(start)
		if err != nil {
			return err
		}
		_, svcDigest := reportWire(svcRep)
		_, localDigest := reportWire(localRep)
		if svcDigest != localDigest {
			return fmt.Errorf("session %d: service and Local reports differ at equal seeds", i)
		}
		overhead = append(overhead, svcS-localS)

		rep := ks.rep
		start = time.Now()
		if err := rep.VerifyAggregated(pcs.DefaultParams()); err != nil {
			return err
		}
		agg = append(agg, since(start))
		start = time.Now()
		if err := zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()}); err != nil {
			return err
		}
		perOp = append(perOp, since(start))

		start = time.Now()
		frames := make([][]byte, len(rep.Ops))
		for k := range rep.Ops {
			frames[k] = wire.EncodeOpProof(&rep.Ops[k])
		}
		vreq := wire.EncodeVerifyModelRequest(&wire.VerifyModelRequest{Mode: zkvc.VerifyAggregate, Report: rep})
		enc = append(enc, since(start))
		start = time.Now()
		for _, f := range frames {
			if _, err := wire.DecodeOpProof(f); err != nil {
				return err
			}
		}
		if _, err := wire.DecodeVerifyModelRequest(vreq); err != nil {
			return err
		}
		dec = append(dec, since(start))
		n, _ := reportWire(rep)
		size = append(size, float64(n))
	}
	l["zkml.plan_s"] = median(plan)
	l["server.overhead_s"] = median(overhead)
	l["zkml.verify_aggregate_s"] = median(agg)
	l["zkml.verify_per_op_s"] = median(perOp)
	l["wire.encode_s"] = median(enc)
	l["wire.decode_s"] = median(dec)
	l["wire.report_bytes"] = median(size)
	return nil
}
