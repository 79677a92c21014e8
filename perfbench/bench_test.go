package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The benchmark's own smoke test, in short mode: small inputs and a
// one-second window. Run it from this directory with `go test -short .`.

type declared struct {
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

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// buildServer compiles cmd/planserver once per test binary.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "planserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/planserver")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build planserver: %v\n%s", err, out)
	}
	return bin
}

func shortConfig(t *testing.T, bin, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: time.Second, trace: trace, short: true,
		clients: 2, root: t.TempDir(), server: bin}
}

func checkMetrics(t *testing.T, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s: value %v", m.Name, got.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("smoke test runs in -short mode")
	}
	d := readDeclared(t)
	declared := map[string]bool{}
	for _, w := range d.Workloads {
		declared[w.Name] = true
	}
	bin := buildServer(t)
	// Every workload perfbench knows, declared in BENCHMARK.json or not,
	// emits the declared metrics with verified answers.
	for _, name := range workloadNames {
		delete(declared, name)
		for _, trace := range []bool{false, true} {
			res, err := run(shortConfig(t, bin, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: verified %d of %d answers", name, trace, res.Attempted-res.Failed, res.Attempted)
			}
			if trace {
				checkMetrics(t, res, d.PerLayer)
			} else {
				checkMetrics(t, res, d.EndToEnd)
			}
		}
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json declares workload %s, which perfbench does not know", name)
	}
}

// TestCorruptedExpectedCaught proves verification has teeth: a run whose
// expected answers are corrupted must report every affected answer failed.
func TestCorruptedExpectedCaught(t *testing.T) {
	if !testing.Short() {
		t.Skip("smoke test runs in -short mode")
	}
	bin := buildServer(t)
	cfg := shortConfig(t, bin, "stream-large", false)
	w, err := buildWorkload(cfg.workload, cfg.seed, sizesFor(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	v, err := newVerifier(w)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range v.expected {
		a.Sum.Sum ^= 1
		v.expected[k] = a
	}
	res, err := runEndToEnd(cfg, w, v)
	if err != nil {
		t.Fatal(err)
	}
	// Every execute (warm-up and measured) must fail; only the PATCH
	// probe, which carries no answer, may pass.
	if want := res.attempted - len(w.Probe); res.failed != want {
		t.Errorf("%d failures, want every one of %d executes", res.failed, want)
	}

	// Plans: a corrupted CostKDecomp cost must be caught too.
	pw, err := buildWorkload("plan-mixed", 7, sizesFor(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	pv, err := newVerifier(pw)
	if err != nil {
		t.Fatal(err)
	}
	o := pw.Ops[0]
	reps, _, _, _, err := setup(bin, pw, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stopReplicas(reps)
	c := newHTTPClient()
	got, _, err := doPlan(c, reps[0].URL, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := pv.plans.check(o, got); err != nil {
		t.Fatalf("true plan answer rejected: %v", err)
	}
	d := pv.plans.direct[o.Form]
	trueCost := d.cost
	d.cost *= 1.5
	if err := pv.plans.check(o, got); err == nil {
		t.Error("plan checked against a corrupted CostKDecomp cost passed")
	}
	d.cost = trueCost
	got.Plan = append([]byte(nil), got.Plan...)
	got.Plan[len(got.Plan)/2] ^= 1
	if err := pv.plans.check(o, got); err == nil {
		t.Error("corrupted plan bytes passed")
	}
}
