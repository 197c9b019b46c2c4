// Command perfbench is the repository benchmark. It runs one workload
// through the public zkvc API and prints its metrics; see README.md for
// the workloads, the metrics and how to run it.
//
//	perfbench --workload matmul-spartan --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the machine-readable result.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is everything one workload run measured and checked.
type runOutput struct {
	e2e     endToEnd
	setupS  float64
	fp      string // output fingerprint; empty if a fingerprinted session failed
	canary  error  // nil when the tampered proof was rejected with zkvc.ErrVerification
	checks  error  // first failed output check other than a session failure
	layers  map[string]float64
	traceTo string
}

var workloads = map[string]func(context.Context, config) (*runOutput, error){
	"matmul-spartan": runMatMulSpartan,
	"matmul-groth16": runMatMulGroth16,
	"model-service":  runModelService,
}

// endToEndUnits lists the end-to-end metrics with their units.
var endToEndUnits = map[string]string{
	"prove_p50_s":          "s",
	"prove_p90_s":          "s",
	"verify_p50_s":         "s",
	"verify_p90_s":         "s",
	"sessions_per_s":       "1/s",
	"proof_bytes":          "bytes",
	"setup_s":              "s",
	"alloc_mb_per_session": "MB",
}

// layerUnits lists the per-layer metrics with their units. A workload
// that does not run a layer reports it as 0 (see README.md).
var layerUnits = map[string]string{
	"loadgen.lag_p90_s": "s", "loadgen.inflight_max": "count",
	"nn.forward_s":           "s",
	"zkml.plan_s":            "s",
	"zkml.ops":               "count",
	"zkml.op_prove_s.matmul": "s", "zkml.op_prove_s.softmax": "s", "zkml.op_prove_s.gelu": "s",
	"zkml.op_synth_s.matmul": "s", "zkml.op_synth_s.softmax": "s", "zkml.op_synth_s.gelu": "s",
	"zkml.verify_aggregate_s": "s", "zkml.verify_per_op_s": "s",
	"server.overhead_s": "s", "server.stream_stall_s": "s", "server.admission_rejects": "count",
	"server.model_ops_queued_max": "count", "server.parallel_in_use_mean": "count",
	"wire.encode_s": "s", "wire.decode_s": "s", "wire.report_bytes": "bytes",
	"matrix.mul_s":   "s",
	"crpc.wcommit_s": "s", "crpc.synth_s": "s", "crpc.constraints": "count", "crpc.vars": "count",
	"r1cs.eval_lc_s":  "s",
	"spartan.prove_s": "s", "spartan.verify_s": "s",
	"pcs.commit_s": "s", "pcs.open_s": "s", "pcs.verify_open_s": "s", "pcs.codeword_len": "count",
	"sumcheck.prove_s": "s", "sumcheck.verify_s": "s",
	"mle.bind_rows_s": "s",
	"groth16.setup_s": "s", "groth16.prove_s": "s", "groth16.verify_s": "s",
	"qap.h_s": "s", "qap.domain_size": "count",
	"curve.msm_g1_s": "s", "curve.msm_g2_s": "s", "curve.msm_points": "count",
	"curve.pairing_check_s": "s", "curve.pairings": "count",
	"poly.ntt_s":   "s",
	"ff.fr_mul_ns": "ns", "ff.fp_mul_ns": "ns", "ff.fr_inverse_ns": "ns",
	"trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: matmul-spartan, matmul-groth16 or model-service")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", ".bench_build/traces", "directory the traced pass writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload, prints the human-readable record to out and
// returns the result line.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	o, err := fn(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res := &result{
		Correct:   o.e2e.failed == 0 && o.canary == nil && o.checks == nil && o.fp != "",
		Attempted: o.e2e.attempted,
		Failed:    o.e2e.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{Value: o.layers[name], Unit: unit}
		}
	} else {
		e := o.e2e
		for name, v := range map[string]float64{
			"prove_p50_s": e.proveP50, "prove_p90_s": e.proveP90,
			"verify_p50_s": e.verifyP50, "verify_p90_s": e.verifyP90,
			"sessions_per_s": e.sessionsPerS, "proof_bytes": e.proofBytes,
			"setup_s": o.setupS, "alloc_mb_per_session": e.allocMB,
		} {
			res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			res.Metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	printRecord(out, cfg, o, res)
	return res, nil
}

// printRecord writes the environment, the checks and every metric with
// its unit, one per line, ahead of the result line.
func printRecord(out io.Writer, cfg config, o *runOutput, res *result) {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	env, _ := json.Marshal(environment(cfg.seed)) // a struct of strings and ints always marshals
	fmt.Fprintf(out, "env %s\n", env)
	fmt.Fprintf(out, "fingerprint sha256:%s\n", o.fp)
	canary := "rejected with zkvc.ErrVerification"
	if o.canary != nil {
		canary = "FAILED: " + o.canary.Error()
	}
	fmt.Fprintf(out, "canary %s\n", canary)
	if o.checks != nil {
		fmt.Fprintf(out, "check FAILED: %v\n", o.checks)
	}
	failedFrac := float64(o.e2e.failed) / float64(max(o.e2e.attempted, 1))
	fmt.Fprintf(out, "sessions attempted %d failed %d failed_frac %g\n", o.e2e.attempted, o.e2e.failed, failedFrac)
	if cfg.trace {
		fmt.Fprintf(out, "trace.overhead_frac %g trace.coverage_frac %g spans %s\n",
			o.layers["trace.overhead_frac"], o.layers["trace.coverage_frac"], o.traceTo)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "metric %-30s %.6g %s\n", name, m.Value, m.Unit)
	}
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
