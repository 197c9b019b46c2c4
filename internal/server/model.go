package server

// Model proving as a service workload: a modelJob is the second job kind
// of the dispatcher — "prove every circuit of this captured forward
// pass". It reuses the whole matmul-era machinery: the submission queue
// and its capacity bound (a model job counts as its op count, since that
// is the work it parks), the worker pool and its one-token-per-job
// budget discipline, the CRS cache (keyed by circuit structure digest,
// so the twelve identical blocks of a ViT pay one Groth16 setup across
// all requests and tenants) and the issued-proof log (one whole-report,
// tenant-scoped digest per completed job, so /v1/verify/model only
// vouches for reports this service streamed to that tenant, unmodified
// and complete).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zkvc"
	"zkvc/internal/groth16"
	"zkvc/internal/nn"
	"zkvc/internal/parallel"
	"zkvc/internal/pcs"
	"zkvc/internal/r1cs"
	"zkvc/internal/wire"
	"zkvc/internal/zkml"
)

// modelJob is one end-to-end model proving request flowing through the
// dispatcher to the worker pool.
type modelJob struct {
	tenant         string
	backend        zkml.Backend
	proveNonlinear bool
	cfg            nn.Config
	trace          *nn.Trace

	// ctx is the submitting request's context: the proving pipeline runs
	// under it, so a client disconnect cancels unstarted ops directly.
	// It stays live for the job's whole lifetime because the handler
	// blocks draining events until run finishes. The legacy clientGone
	// flag remains alongside it for the one signal no context carries —
	// a stream frame write failing on a still-connected socket.
	ctx context.Context

	plan      int // ops that will be proved (queue-capacity units)
	completed atomic.Int64

	// header is the wire-encoded stream header the handler sends first;
	// it is folded into the issued-report digest, binding the model
	// name, backend, circuit options and op count the proofs were
	// streamed under.
	header []byte
	// opHashes collects each op frame's digest at its sequence slot
	// (concurrent writers touch disjoint indices); on success they are
	// combined, in order, into the single issued-report attestation.
	opHashes [][32]byte
	// clientGone is set by the handler when the response writer fails or
	// the request context is canceled (client disconnect); the proving
	// pipeline polls it and cancels instead of finishing work nobody
	// will receive.
	clientGone atomic.Bool

	// events carries pre-encoded OpProof frames to the HTTP handler. The
	// buffer is deliberately small: a slow reader backpressures proving
	// after a few ops instead of letting finished proofs (and their
	// payloads) pile up in memory — that bound is the reason the endpoint
	// streams at all.
	events chan modelEvent
	// final is the last completed op's frame, held back by OnOp until
	// run has attested the report.
	final []byte
}

type modelEvent struct {
	frame []byte
	err   error
}

func (*modelJob) submissionKind() string { return "model" }

// modelEventBuffer is the per-job frame buffer (see modelJob.events).
const modelEventBuffer = 4

// run proves the trace on the worker's goroutine. Independent ops fan
// out over whatever budget tokens are free, each drawing its randomness
// from its sequence number, so the streamed proofs are byte-identical to
// a local ProveTrace at any parallelism level.
func (j *modelJob) run(s *Server, _ *zkvc.MatMulProver) {
	defer close(j.events)
	defer func() {
		// Ops skipped by an error (or never streamed) leave the queue here.
		delta := j.completed.Load() - int64(j.plan)
		s.metrics.modelOpsQueued.Add(delta)
		s.metrics.queueUnits.Add(delta)
	}()
	_, err := zkml.ProveTraceContext(j.ctx, j.cfg, j.trace, s.modelOpts(j))
	if err != nil {
		// A client disconnect is routine churn, not a proving fault;
		// keep prove_errors meaningful for operators alerting on it.
		// Cancellation reports ErrCanceled whether it came from the
		// request context or the legacy clientGone/Stop path, so both
		// land in model_jobs_canceled.
		if errors.Is(err, zkml.ErrCanceled) {
			s.metrics.modelJobsCanceled.Add(1)
		} else {
			s.metrics.proveErrors.Add(1)
		}
		j.events <- modelEvent{err: err}
		return
	}
	// Attest the whole report at once: header, every op frame digest in
	// sequence order, and the tenant. A report relabeled, spliced from
	// other issued reports, or reordered no longer matches. Canceled or
	// failed jobs attest nothing.
	d := modelReportDigest(j.header, j.opHashes, j.tenant)
	if s.issued.add(d, 0) {
		s.replicate([][sha256.Size]byte{d}, nil)
	}
	s.metrics.modelJobsProved.Add(1)
	j.publish(s, j.final)
}

// modelOpts assembles the compiler options for one model job: the
// service's circuit options and seed, the client's backend and nonlinear
// choice, payloads kept but ops discarded (each exists only long enough
// to be framed and streamed), and Groth16 setups routed through the
// shared digest-keyed CRS cache.
func (s *Server) modelOpts(j *modelJob) zkml.Options {
	opts := zkml.DefaultOptions()
	opts.Backend = j.backend
	opts.Circuit = s.cfg.Opts
	opts.ProveNonlinear = j.proveNonlinear
	opts.Seed = s.cfg.Seed
	opts.KeepProofs = true
	opts.DiscardOps = true
	if j.backend == zkml.Groth16 {
		opts.Setup = s.circuitSetup
	}
	opts.Stop = j.clientGone.Load
	opts.OnOp = func(op *zkml.OpProof) {
		frame := wire.EncodeOpProof(op)
		j.opHashes[op.Seq] = sha256.Sum256(frame)
		s.metrics.modelOpsProved.Add(1)
		s.metrics.modelOpsQueued.Add(-1)
		s.metrics.queueUnits.Add(-1)
		s.metrics.recordOpTimings(op)
		if j.completed.Add(1) == int64(j.plan) {
			// The last op completes the report. run streams its frame
			// only after attesting, so a client that verifies as soon
			// as it holds every op finds the attestation recorded.
			j.final = frame
			return
		}
		j.publish(s, frame)
	}
	return opts
}

// publish hands one op frame to the HTTP handler.
func (j *modelJob) publish(s *Server, frame []byte) {
	select {
	case j.events <- modelEvent{frame: frame}:
	default:
		// The handler (or its client) is behind; block, and account
		// the stall so /metrics shows stream backpressure.
		s.metrics.streamStalls.Add(1)
		start := time.Now()
		j.events <- modelEvent{frame: frame}
		s.metrics.streamStallNanos.Add(time.Since(start).Nanoseconds())
	}
}

// circuitSetup is the SetupFunc model jobs use: Groth16 proving material
// memoized in the shared CRS cache under the circuit's structure digest.
// The derivation inside zkml.SetupCircuit is seed-deterministic, so a
// service configured with a test seed regenerates identical material
// after an eviction (and matches local proving with the same seed); with
// the production crypto/rand posture a regenerated CRS simply issues
// fresh attestations.
func (s *Server) circuitSetup(digest [32]byte, sys *r1cs.System) (*groth16.ProvingKey, *groth16.VerifyingKey, error) {
	key := cacheKey{backend: zkvc.Groth16, circuit: digest}
	v, _, hit, err := s.cache.get(key, func() (any, error) {
		pk, vk, err := zkml.SetupCircuit(sys, s.cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &circuitCRS{pk: pk, vk: vk}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if hit {
		s.metrics.crsHits.Add(1)
	} else {
		s.metrics.crsMisses.Add(1)
	}
	c := v.(*circuitCRS)
	return c.pk, c.vk, nil
}

// modelReportDigest fingerprints one issued report: the stream header
// (model name, backend, circuit options, op count), every op frame's
// digest in sequence order, and the tenant the stream was issued to —
// verifying through /v1/verify/model requires presenting the same
// tenant header, extending the per-tenant partitioning of the coalescer
// to model reports. (As with coalescing, the header is taken on faith —
// the isolation is real only behind an authenticating proxy; see the
// package comment on tenancy.)
func modelReportDigest(header []byte, opHashes [][32]byte, tenant string) [sha256.Size]byte {
	h := sha256.New()
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(header)))
	h.Write(n[:])
	h.Write(header)
	for i := range opHashes {
		h.Write(opHashes[i][:])
	}
	binary.BigEndian.PutUint32(n[:], uint32(len(tenant)))
	h.Write(n[:])
	h.Write([]byte(tenant))
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// ReportDigest recomputes the whole-report attestation digest for a
// report as submitted by tenant — the digest the issued log records
// when the report is streamed and /v1/verify/model looks up before
// vouching. Exported for the cluster router, which needs the digest to
// pick a report's replica set for verify failover.
func ReportDigest(rep *zkml.Report, tenant string) [sha256.Size]byte {
	header := wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    rep.Model,
		Backend:  rep.Backend,
		Circuit:  rep.Circuit,
		TotalOps: len(rep.Ops),
	})
	opHashes := make([][32]byte, len(rep.Ops))
	for i := range rep.Ops {
		opHashes[i] = sha256.Sum256(wire.EncodeOpProof(&rep.Ops[i]))
	}
	return modelReportDigest(header, opHashes, tenant)
}

// submitModel admits a model job into the dispatcher. The job charges
// its op count against the shared queue capacity: a parked model is
// parked work proportional to its trace, not one slot.
func (s *Server) submitModel(j *modelJob) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.metrics.queueUnits.Add(int64(j.plan)) > int64(s.cfg.QueueCap) {
		s.metrics.queueUnits.Add(-int64(j.plan))
		return errQueueFull
	}
	s.metrics.modelOpsQueued.Add(int64(j.plan))
	select {
	case s.submit <- j:
		return nil
	default:
		s.metrics.modelOpsQueued.Add(-int64(j.plan))
		s.metrics.queueUnits.Add(-int64(j.plan))
		return errQueueFull
	}
}

// handleProveModel proves a captured trace and streams each operation's
// proof as a length-prefixed frame the moment it finishes: header frame
// (total op count), then OpProof frames in completion order (op.Seq
// positions each in the report), then end of body. A mid-stream failure
// is a ModelStreamError frame. wire.DecodeModelStream reassembles the
// report client-side.
func (s *Server) handleProveModel(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquireModelSlot(w)
	if !ok {
		return
	}
	// release is sync.Once-guarded, so the deferred call makes every
	// early exit slot-safe while still letting the success path hand the
	// slot back before streaming.
	defer release()
	raw, ok := readBodyN(w, r, maxModelBodyBytes)
	if !ok {
		return
	}
	req, err := wire.DecodeProveModelRequest(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	raw = nil
	planOpts := zkml.Options{ProveNonlinear: req.ProveNonlinear}
	plan, err := zkml.PlanTrace(req.Trace, planOpts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(plan) == 0 {
		http.Error(w, "trace has no provable operations", http.StatusBadRequest)
		return
	}
	// A trace bigger than the whole queue capacity could never be
	// admitted; say so honestly instead of returning 503 forever.
	if len(plan) > s.cfg.QueueCap {
		http.Error(w, fmt.Sprintf("trace has %d provable operations, above this service's queue capacity %d; split the model or raise QueueCap",
			len(plan), s.cfg.QueueCap), http.StatusBadRequest)
		return
	}
	j := &modelJob{
		tenant:         r.Header.Get(TenantHeader),
		backend:        req.Backend,
		proveNonlinear: req.ProveNonlinear,
		cfg:            req.Cfg,
		trace:          req.Trace,
		ctx:            r.Context(),
		plan:           len(plan),
		opHashes:       make([][32]byte, len(plan)),
		events:         make(chan modelEvent, modelEventBuffer),
	}
	j.header = wire.EncodeModelStreamHeader(&wire.ModelStreamHeader{
		Model:    req.Cfg.Name,
		Backend:  req.Backend,
		Circuit:  s.cfg.Opts,
		TotalOps: len(plan),
	})
	if err := s.submitModel(j); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.metrics.modelJobs.Add(1)
	// The job is admitted and its memory is accounted by the queue
	// ledger; the body-buffering slot can go back before streaming.
	release()

	// A client that vanishes between frames may never trigger a write
	// error (the next finished op can be minutes away, or the frame can
	// land in OS buffers). The request context cancels promptly on
	// disconnect, so watch it too; setting clientGone at handler return
	// (when net/http cancels the context) is harmless — by then the job
	// has already drained.
	stop := context.AfterFunc(r.Context(), func() { j.clientGone.Store(true) })
	defer stop()

	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	write := func(msg []byte) {
		if j.clientGone.Load() {
			return
		}
		// Per-frame write deadline: a client that stops reading (socket
		// buffers full, connection still open) must not wedge this worker
		// and its budget token forever. Past the deadline the write fails
		// and the job cancels like any other disconnect. Best-effort — a
		// ResponseWriter without deadline support just keeps the old
		// write-failure-only detection. Deliberately never cleared: the
		// server clears it between keep-alive requests itself, and an
		// expired deadline is what makes the post-handler flush to a
		// stalled client fail fast instead of blocking conn.serve.
		rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		if err := wire.WriteFrame(w, msg); err != nil {
			// Either way, keep draining events (so the proving job never
			// blocks on a reader that is gone) and tell the pipeline to
			// cancel the ops it has not started.
			j.clientGone.Store(true)
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The connection is healthy — the server hit its own
				// encoding bound. Say so in-stream instead of letting the
				// client see an unexplained truncated stream.
				if wire.WriteFrame(w, wire.EncodeModelStreamError(err.Error())) == nil && flusher != nil {
					flusher.Flush()
				}
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	write(j.header)
	for ev := range j.events {
		if ev.err != nil {
			write(wire.EncodeModelStreamError(ev.err.Error()))
			return
		}
		write(ev.frame)
	}
}

// acquireModelSlot bounds how many model-endpoint requests may buffer
// their (up to maxModelBodyBytes) bodies concurrently; beyond that the
// service sheds load instead of holding gigabytes of unadmitted input.
func (s *Server) acquireModelSlot(w http.ResponseWriter) (func(), bool) {
	select {
	case s.modelSlots <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-s.modelSlots }) }, true
	default:
		http.Error(w, "too many concurrent model requests", http.StatusServiceUnavailable)
		return nil, false
	}
}

// errReportNotIssued is the issued-only policy rejection, identical on
// the legacy and mode-carrying verify paths: both attest exactly the
// same whole-report digest.
func errReportNotIssued() error {
	return fmt.Errorf("%w: report was not issued by this service under this tenant (model reports carry prover-supplied verifying material, so only reports this service streamed — resubmitted unmodified and complete, with the same Zkvc-Tenant header — are accepted; attestations also expire from the bounded issued log)",
		zkvc.ErrVerification)
}

// writeVerifyModelResponse writes the binary verdict of the ?mode= fast
// path. Unlike the legacy JSON verdict, a processed request is always
// HTTP 200 — the verdict rides in the OK flag.
func writeVerifyModelResponse(w http.ResponseWriter, mode zkvc.VerifyMode, err error) {
	resp := &wire.VerifyModelResponse{OK: err == nil, Mode: mode}
	if err != nil {
		resp.Error = err.Error()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(wire.EncodeVerifyModelResponse(resp))
}

// handleVerifyModel checks a model report. Every payload in a report is
// prover-supplied — the Groth16 ops carry their verifying keys, the
// Spartan ops carry the very R1CS they claim to satisfy — so, like epoch
// proofs, a report proves nothing unless this service produced it. The
// handler therefore requires the whole-report issued-log attestation
// (header, ops in order, requesting tenant) before re-running
// cryptographic verification; reports from elsewhere — or issued ones
// relabeled, reordered or spliced — are rejected with a policy error,
// not a bogus pass. Verification holds one parallel-budget token, like
// every other unit of proving-stack work on this service.
//
// Two dialects share the endpoint. The legacy mode-less exchange (no
// query) posts a bare wire.Report and reads a JSON verdict — per-op
// verification, unchanged. The ?mode=per-op|aggregate fast path posts a
// wire.VerifyModelRequest whose embedded mode must match the query
// (routing and statement may not disagree) and reads a binary
// wire.VerifyModelResponse; mode=aggregate runs the whole-report batched
// check, attesting exactly the digest the per-op path attests.
func (s *Server) handleVerifyModel(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquireModelSlot(w)
	if !ok {
		return
	}
	defer release()
	raw, ok := readBodyN(w, r, maxModelBodyBytes)
	if !ok {
		return
	}
	var (
		rep      *zkml.Report
		mode     zkvc.VerifyMode
		modeless = r.URL.Query().Get("mode") == ""
	)
	if modeless {
		var err error
		if rep, err = wire.DecodeReport(raw); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		var err error
		if mode, err = zkvc.ParseVerifyMode(r.URL.Query().Get("mode")); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := wire.DecodeVerifyModelRequest(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Mode != mode {
			http.Error(w, fmt.Sprintf("request body carries mode %q, query requests %q", req.Mode, mode), http.StatusBadRequest)
			return
		}
		rep = req.Report
	}
	raw = nil
	s.metrics.verifyRequests.Add(1)
	tenant := r.Header.Get(TenantHeader)
	if !s.attested(ReportDigest(rep, tenant)) {
		s.metrics.modelRejects.Add(1)
		if modeless {
			writeVerdict(w, errReportNotIssued())
		} else {
			writeVerifyModelResponse(w, mode, errReportNotIssued())
		}
		return
	}
	pool := parallel.Default()
	if err := pool.AcquireCtx(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer pool.Release()
	var err error
	if mode == zkvc.VerifyAggregate {
		err = rep.VerifyAggregated(pcs.DefaultParams())
	} else {
		err = zkml.VerifyReport(rep, zkml.Options{PCS: pcs.DefaultParams()})
	}
	if modeless {
		writeVerdict(w, err)
		return
	}
	writeVerifyModelResponse(w, mode, err)
}
