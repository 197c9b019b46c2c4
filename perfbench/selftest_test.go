package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"zkvc"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortRun runs one workload for a second and returns its result and
// printed record.
func shortRun(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(context.Background(), config{
		workload: workload, seed: 5, seconds: 1, trace: trace, traceOut: t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, out.String()
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

func fingerprintLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fingerprint ") {
			return line
		}
	}
	return ""
}

// TestSelf runs every workload briefly: untraced twice and traced once.
// Each run must print every metric BENCHMARK.json names with its unit,
// pass its checks with the soundness canary rejected, and print the
// same output fingerprint as the other runs at the same seed.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var fps []string
			for _, trace := range []bool{false, false, true} {
				res, out := shortRun(t, w.Name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < fingerprintSessions {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out)
				}
				if !strings.Contains(out, "canary rejected with zkvc.ErrVerification") {
					t.Errorf("trace=%v: canary did not fire:\n%s", trace, out)
				}
				if trace {
					checkMetrics(t, res, layer)
				} else {
					checkMetrics(t, res, e2e)
				}
				fps = append(fps, fingerprintLine(out))
			}
			if fps[0] == "" || fps[0] != fps[1] || fps[0] != fps[2] {
				t.Errorf("fingerprint differs between runs at one seed: %q", fps)
			}
		})
	}
}

// TestCanaryFailsOnAcceptance checks the canary itself: the real
// verifier rejects the tampered proof, and a verifier that accepts it
// makes the canary report a failure.
func TestCanaryFailsOnAcceptance(t *testing.T) {
	ctx := context.Background()
	st := newStatement(1, "canary", 0, 2, 3, 2)
	eng := zkvc.NewLocal(zkvc.Spartan, zkvc.DefaultOptions())
	proof, err := eng.ProveMatMul(ctx, st.x, st.w)
	if err != nil {
		t.Fatal(err)
	}
	if err := canary(ctx, eng.VerifyMatMul, st.x, proof); err != nil {
		t.Errorf("canary with the real verifier: %v", err)
	}
	acceptAll := func(context.Context, *zkvc.Matrix, *zkvc.MatMulProof) error { return nil }
	if err := canary(ctx, acceptAll, st.x, proof); err == nil {
		t.Error("canary passed although the verifier accepted a tampered proof")
	}
}
