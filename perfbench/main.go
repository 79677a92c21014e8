// Command perfbench is the repository's layered benchmark. It boots the
// real planserver binary, drives one of four workloads from a closed loop
// of clients, verifies every answer against the library, and prints the
// end-to-end metrics; with -trace 1 it instead replays the workload's
// operation sequence serially through each layer's public calls and prints
// the per-layer metrics, writing the spans to a file.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload plan-mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result; a human-readable
// report goes to standard error. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	short    bool
	clients  int
	root     string // checkout root; trace files go under it
	server   string // planserver binary
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.server, "server", "", "planserver binary")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	// Closed-loop clients: at most one per CPU.
	cfg.clients = runtime.NumCPU()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(cfg config) (*result, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("-server is required")
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	w, err := buildWorkload(cfg.workload, cfg.seed, sizesFor(cfg.short, int(cfg.seconds/time.Second)))
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: inputs built", w.Name, cfg.seed)
	v, err := newVerifier(w)
	if err != nil {
		return nil, err
	}
	logf("expected answers ready")
	if cfg.trace {
		tr, err := runTraced(cfg, w, v)
		if err != nil {
			return nil, err
		}
		return tr, nil
	}
	e, err := runEndToEnd(cfg, w, v)
	if err != nil {
		return nil, err
	}
	return &result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics}, nil
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// reportEndToEnd prints the human-readable end-to-end report: the metrics,
// the sample counts, p99 where the run has at least 1000 samples, the
// time to first rows, the failure ratio and the /v1/stats counter deltas.
func reportEndToEnd(cfg config, w *workload, recs []record, lat, first, patch []float64, elapsed time.Duration, res *e2eResult, before, after []server.StatsResponse) {
	e := os.Stderr
	clients := fmt.Sprintf("%d closed-loop clients", w.clients(cfg))
	if w.Writer {
		clients = "a reader and a writer client"
	}
	fmt.Fprintf(e, "workload %s seed %d: %d ops in %.2fs from %s on %d replica(s)\n",
		w.Name, cfg.seed, len(recs), elapsed.Seconds(), clients, w.Replicas)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(e, "  %-16s %12.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	fmt.Fprintf(e, "  latency samples %d (p75 %.3f, p95 %.3f ms), patch samples %d (p25 %.3f, p75 %.3f ms)\n",
		len(lat), percentile(lat, 0.75), percentile(lat, 0.95), len(patch), percentile(patch, 0.25), percentile(patch, 0.75))
	if len(lat) >= 1000 {
		fmt.Fprintf(e, "  latency_p99_ms   %12.4f ms\n", percentile(lat, 0.99))
	}
	fmt.Fprintf(e, "  ttfr_p50_ms      %12.4f ms (gated per layer, from the traced run)\n", percentile(first, 0.50))
	fmt.Fprintf(e, "  fail_ratio       %12.6f (%d of %d)\n", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted)
	d := counterDeltas(before, after)
	for _, n := range sortedKeys(d) {
		fmt.Fprintf(e, "  %-26s %d\n", n, d[n])
	}
	for i, err := range res.errs {
		if i == 5 {
			fmt.Fprintf(e, "  ... %d more failures\n", len(res.errs)-i)
			break
		}
		fmt.Fprintln(e, "  FAIL", err)
	}
}

// counterDeltas sums the /v1/stats counters over the replicas and returns
// their change across a run.
func counterDeltas(before, after []server.StatsResponse) map[string]int64 {
	sum := func(sts []server.StatsResponse) map[string]int64 {
		m := map[string]int64{}
		for _, st := range sts {
			m["stats.plan_hits"] += int64(st.Planner.Plans.Hits)
			m["stats.plan_misses"] += int64(st.Planner.Plans.Misses)
			m["stats.plan_computations"] += int64(st.Planner.Plans.Computations)
			if r := st.Results; r != nil {
				m["stats.result_hits"] += int64(r.Hits)
				m["stats.result_misses"] += int64(r.Misses)
				m["stats.result_evictions"] += int64(r.Evictions)
				m["stats.result_too_large"] += int64(r.TooLarge)
			}
			if c := st.Cluster; c != nil {
				m["stats.peer_fills"] += int64(c.PeerFills)
				m["stats.peer_fill_misses"] += int64(c.PeerFillMisses)
				m["stats.peer_fill_errors"] += int64(c.PeerFillErrors)
			}
		}
		return m
	}
	b, a := sum(before), sum(after)
	out := map[string]int64{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	for _, k := range []string{"stats.peer_fills", "stats.peer_fill_misses", "stats.peer_fill_errors"} {
		if _, ok := out[k]; !ok {
			out[k] = 0
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var processStart = time.Now()

// logf prints a progress line, stamped with the time since start, to
// standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}
