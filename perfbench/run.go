package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// The end-to-end run: set up several times (reporting the median set-up
// time and keeping the last servers), drive the workload from a closed
// loop of clients for the measured window, then verify every answer.

// record is one completed operation: its timing and what the client saw.
type record struct {
	Op     op
	Timing timing
	Plan   planResult
	Exec   execResult
	Patch  patchResult
	Err    error
}

// doOp sends one operation and records the outcome. Patch versions feed
// the version map as they are acknowledged, so executes that race a PATCH
// can be checked against the dataset their header names.
func doOp(c *http.Client, base string, o op, vmap *versionMap) record {
	rec := record{Op: o}
	switch o.Kind {
	case opPlan:
		rec.Plan, rec.Timing, rec.Err = doPlan(c, base, o)
	case opExec:
		rec.Exec, rec.Timing, rec.Err = doExec(c, base, o)
	case opPatch:
		rec.Patch, rec.Timing.Latency, rec.Err = doPatch(c, base, o)
		rec.Timing.First = rec.Timing.Latency
		if rec.Err == nil && rec.Patch.Status == http.StatusOK {
			vmap.record(o.Tenant, rec.Patch.Base, rec.Patch.Version, o.Dataset)
		}
	}
	return rec
}

// verifier checks records against the library's answers.
type verifier struct {
	w        *workload
	plans    *planOracle
	expected map[answerKey]expectedAnswer
}

func newVerifier(w *workload) (*verifier, error) {
	v := &verifier{w: w, plans: newPlanOracle(w)}
	if len(w.execs) > 0 {
		exp, err := expectAnswers(w)
		if err != nil {
			return nil, err
		}
		v.expected = exp
	}
	return v, nil
}

func (v *verifier) check(rec record, vmap *versionMap) error {
	if rec.Err != nil {
		return rec.Err
	}
	switch rec.Op.Kind {
	case opPlan:
		return v.plans.check(rec.Op, rec.Plan)
	case opExec:
		d, err := vmap.resolve(rec.Op.Tenant, rec.Exec.Version)
		if err != nil {
			return err
		}
		want, ok := v.expected[answerKey{rec.Op.Tenant, d, rec.Op.Form}]
		if !ok {
			return fmt.Errorf("no expected answer for %s dataset %d form %d", rec.Op.Tenant, d, rec.Op.Form)
		}
		return checkExec(want, rec.Exec)
	default:
		if rec.Patch.Status != http.StatusOK || rec.Patch.Version <= rec.Patch.Base {
			return fmt.Errorf("patch: status %d, version %d over base %d", rec.Patch.Status, rec.Patch.Version, rec.Patch.Base)
		}
		return nil
	}
}

// checkAll verifies records with two workers. It returns one entry per
// record: nil for a verified answer, else why it was wrong.
func (v *verifier) checkAll(recs []record, vmap *versionMap) []error {
	errs := make([]error, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				if err := v.check(recs[i], vmap); err != nil {
					errs[i] = fmt.Errorf("%s %q on %s: %w", kindName(recs[i].Op.Kind), recs[i].Op.Query, recs[i].Op.Tenant, err)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

func kindName(k opKind) string {
	return [...]string{"plan", "execute", "patch"}[k]
}

// tally adds the outcome of checked records to the result.
func (r *e2eResult) tally(errs []error) {
	r.attempted += len(errs)
	for _, err := range errs {
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err)
		}
	}
}

// setup boots the replicas, uploads every catalog (the server analyzes
// each on upload) and runs the warm-up operations.
func setup(bin string, w *workload, clients int) ([]*replica, time.Duration, []record, *versionMap, error) {
	start := time.Now()
	reps, err := startReplicas(bin, w.Replicas)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	vmap := newVersionMap()
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	for _, r := range reps {
		for _, tc := range w.Catalogs {
			v, err := putCatalog(c, r.URL, tc)
			if err != nil {
				stopReplicas(reps)
				return nil, 0, nil, nil, err
			}
			vmap.record(tc.Tenant, 0, v, 0)
		}
	}
	var warm []record
	for _, r := range reps {
		warm = append(warm, closedLoop(w.Warmup, []*replica{r}, clients, len(w.Warmup), time.Time{}, vmap)...)
	}
	return reps, time.Since(start), warm, vmap, nil
}

// closedLoop sends ops from `clients` concurrent clients, each sending its
// next operation only after the previous answer completed, round-robin
// over the replicas by operation index. It stops after limit operations or
// at the deadline (zero: no deadline), whichever comes first; operations
// past the end of ops wrap around.
func closedLoop(ops []op, reps []*replica, clients, limit int, deadline time.Time, vmap *versionMap) []record {
	var next atomic.Int64
	out := make([][]record, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newHTTPClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= limit || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				o := ops[i%len(ops)]
				out[ci] = append(out[ci], doOp(c, reps[i%len(reps)].URL, o, vmap))
			}
		}(ci)
	}
	wg.Wait()
	var all []record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// setupRuns is how many times a run sets up; set-up time is their median.
const setupRuns = 3

type e2eResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []error
}

func runEndToEnd(cfg config, w *workload, v *verifier) (*e2eResult, error) {
	res := &e2eResult{}
	ph, err := drive(cfg, w)
	if ph.reps != nil {
		stopReplicas(ph.reps)
	}
	if err != nil {
		return nil, err
	}
	for i, warm := range ph.warm {
		res.tally(v.checkAll(warm, ph.warmMaps[i]))
	}
	errs := v.checkAll(ph.recs, ph.vmap)
	res.tally(errs)
	res.tally(v.checkAll(ph.probe, ph.vmap))
	logf("answers verified")

	var lat, first, patch []float64
	rows, streamSec := 0, 0.0
	ok := 0
	for i, rec := range ph.recs {
		ms := rec.Timing.Latency.Seconds() * 1e3
		if errs[i] == nil {
			ok++
		}
		if rec.Op.Kind == opPatch {
			patch = append(patch, ms)
			continue
		}
		if errs[i] != nil {
			// A failed operation misses every latency limit.
			lat = append(lat, math.Inf(1))
			first = append(first, math.Inf(1))
			continue
		}
		lat = append(lat, ms)
		first = append(first, rec.Timing.First.Seconds()*1e3)
		rows += answerRows(rec)
		streamSec += rec.Timing.Latency.Seconds()
	}
	for _, rec := range ph.probe {
		patch = append(patch, rec.Timing.Latency.Seconds()*1e3)
	}
	sort.Float64s(lat)
	sort.Float64s(first)
	sort.Float64s(patch)
	res.metrics = map[string]metric{
		"setup_s":        {median(ph.setups), "s"},
		"ops_per_s":      {float64(ok) / ph.elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(lat, 0.50), "ms"},
		"latency_p90_ms": {percentile(lat, 0.90), "ms"},
		"rows_per_s":     {float64(rows) / streamSec, "1/s"},
		"patch_p50_ms":   {percentile(patch, 0.50), "ms"},
		"peak_rss_mb":    {ph.rss, "MB"},
	}
	reportEndToEnd(cfg, w, ph.recs, lat, first, patch, ph.elapsed, res, ph.before, ph.after)
	return res, nil
}

// phases is what the network half of a run collected; answers are checked
// after it.
type phases struct {
	reps          []*replica
	setups        []float64
	warm          [][]record
	warmMaps      []*versionMap
	vmap          *versionMap
	before, after []server.StatsResponse
	recs, probe   []record
	elapsed       time.Duration
	rss           float64
}

// drive runs the network half of an end-to-end run: set-up several times,
// the PATCH probe, the measured window and the peak-RSS reading. The load
// generator runs on one P with a lax GC throughout, so its own work
// disturbs the servers' CPUs as little as possible. The caller stops
// ph.reps.
func drive(cfg config, w *workload) (ph phases, err error) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(400)
	defer func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}()
	for i := 0; i < setupRuns; i++ {
		rs, d, warm, vm, err := setup(cfg.server, w, w.clients(cfg))
		if err != nil {
			return ph, fmt.Errorf("setup: %w", err)
		}
		ph.setups = append(ph.setups, d.Seconds())
		ph.warm, ph.warmMaps = append(ph.warm, warm), append(ph.warmMaps, vm)
		if i < setupRuns-1 {
			stopReplicas(rs)
			continue
		}
		ph.reps, ph.vmap = rs, vm
	}
	logf("set up %d times", setupRuns)
	if len(w.Probe) > 0 {
		ph.probe = probeAll(w, ph.reps, ph.vmap)
		logf("PATCH probe done")
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	if ph.before, err = clusterStats(c, ph.reps); err != nil {
		return ph, err
	}
	start := time.Now()
	if w.Writer {
		ph.recs = readerWriter(w.Ops, ph.reps[0], start.Add(cfg.seconds), ph.vmap)
	} else {
		ph.recs = closedLoop(w.Ops, ph.reps, w.clients(cfg), math.MaxInt, start.Add(cfg.seconds), ph.vmap)
	}
	ph.elapsed = time.Since(start)
	logf("measured window done: %d operations", len(ph.recs))
	if ph.after, err = clusterStats(c, ph.reps); err != nil {
		return ph, err
	}
	for _, r := range ph.reps {
		mb, err := r.peakRSSMB()
		if err != nil {
			return ph, err
		}
		ph.rss += mb
	}
	return ph, nil
}

// answerRows counts the verified answer rows of one operation: the rows of
// a non-Boolean answer; a Boolean answer or a plan counts as one.
func answerRows(rec record) int {
	if rec.Op.Kind == opExec && rec.Exec.Boolean == nil {
		return rec.Exec.Got.Rows
	}
	return 1
}

// clusterStats reads /v1/stats from every replica.
func clusterStats(c *http.Client, reps []*replica) ([]server.StatsResponse, error) {
	var out []server.StatsResponse
	for _, r := range reps {
		st, err := getStats(c, r.URL)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// probeAll sends the PATCH probe serially to every replica in turn: each
// replica holds its own copy of the catalogs, and a perturbation and its
// restoration must reach the same one.
func probeAll(w *workload, reps []*replica, vmap *versionMap) []record {
	var out []record
	for _, r := range reps {
		out = append(out, closedLoop(w.Probe, []*replica{r}, 1, len(w.Probe), time.Time{}, vmap)...)
	}
	return out
}

// clients is how many closed-loop clients drive the workload.
func (w *workload) clients(cfg config) int {
	if w.Clients > 0 {
		return w.Clients
	}
	return cfg.clients
}

// readerWriter drives ops from two clients until the deadline: a reader
// sends the executes in sequence order, and a writer sends each PATCH as
// soon as the reader has sent every operation before it. PATCHes keep
// their place in the schedule and race the executes that follow, while
// no execute queues behind another execute's evaluation.
func readerWriter(ops []op, rep *replica, deadline time.Time, vmap *versionMap) []record {
	var reads, writes []record
	patches := make(chan op)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := newHTTPClient()
		defer c.CloseIdleConnections()
		for o := range patches {
			writes = append(writes, doOp(c, rep.URL, o, vmap))
		}
	}()
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	for i := 0; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		if o.Kind == opPatch {
			patches <- o
			continue
		}
		reads = append(reads, doOp(c, rep.URL, o, vmap))
	}
	close(patches)
	<-done
	return append(reads, writes...)
}
