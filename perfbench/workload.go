package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/cq"
	"repro/internal/cq/cqgen"
	"repro/internal/db"
)

// The four workloads. Every input — catalogs, query texts, the operation
// sequence and the PATCH schedule — is a pure function of the seed (the
// catalogs of execute-churn are fixtures, the same for every seed); the
// server only ever sees the generated requests.

type opKind int

const (
	opPlan opKind = iota
	opExec
	opPatch
)

// op is one request of a workload's sequence.
type op struct {
	Kind   opKind
	Tenant string
	Query  string // plan and exec
	K      int
	// Form identifies the expected answer: for plans the corpus plan case,
	// for executes the query form within its tenant.
	Form int
	// Patch fields: the delta body and, for a data delta, the dataset it
	// installs (-1 for a stats-only delta, which keeps the data).
	Body    string
	Dataset int
}

// tenantCatalog is one catalog uploaded at setup.
type tenantCatalog struct {
	Tenant string
	Cat    *db.Catalog
	text   []byte
}

// workload is everything a run needs besides the server.
type workload struct {
	Name     string
	Replicas int
	Catalogs []tenantCatalog
	Warmup   []op
	// Ops is the closed-loop sequence; a run that exhausts it wraps.
	Ops []op
	// Probe is the fixed stats-only PATCH sequence a run sends serially
	// between set-up and the measured window, on workloads whose traffic
	// has no PATCHes.
	Probe []op
	// TraceOps is the prefix of Ops the traced run replays.
	TraceOps int
	// Clients is how many closed-loop clients send Ops; 0 means one per
	// CPU. Writer instead sends the executes from one reader client and
	// the PATCHes from a writer client (see readerWriter).
	Clients int
	Writer  bool
	// Verification inputs, filled per workload.
	cases []planCase             // plan workloads: first sighting c's query, catalog and width
	execs map[string]*execTenant // exec workloads, by tenant
}

// execTenant is one tenant of an execute workload.
type execTenant struct {
	K        int
	Forms    []*cq.Query   // an op's Form indexes this
	Datasets []*db.Catalog // the tenant's catalog with dataset d
}

// sizes scales a workload; short mode shrinks it for the smoke test.
type sizes struct {
	pool       int  // distinct structures of the plan corpus
	colds      int  // plan keys of the plan corpus
	streamRows int  // rows per relation of stream-large (answer ≈ rows²/16)
	traceOps   int  // operations the traced run replays on plan workloads
	short      bool // execute-churn's smaller catalogs and trace
}

func sizesFor(short bool, seconds int) sizes {
	if short {
		return sizes{pool: 20, colds: 60, streamRows: 300, traceOps: 40, short: true}
	}
	// Two clients on two CPUs make about 250 first sightings a second; the
	// corpus has room for 400 a second over the whole window.
	return sizes{pool: 400, colds: 400 * seconds, streamRows: 2000, traceOps: 400}
}

func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "plan-mixed":
		return planWorkload(name, seed, sz, 1)
	case "plan-cluster":
		return planWorkload(name, seed, sz, 3)
	case "stream-large":
		return streamWorkload(seed, sz)
	case "execute-churn":
		return churnWorkload(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var workloadNames = []string{"plan-mixed", "stream-large", "execute-churn", "plan-cluster"}

func newTenantCatalog(tenant string, cat *db.Catalog) (tenantCatalog, error) {
	var buf bytes.Buffer
	if err := db.WriteCatalog(&buf, cat); err != nil {
		return tenantCatalog{}, err
	}
	return tenantCatalog{Tenant: tenant, Cat: cat, text: buf.Bytes()}, nil
}

// planGroups is how many tenants share one statistics variant of the
// plan corpus.
const planGroups = 16

// planCase is one plan key of the corpus: a structure over one of its
// statistics variants.
type planCase struct {
	Query  *cq.Query
	Cat    *db.Catalog // the structure's relations alone, analyzed
	K      int
	Tenant string
}

// planWorkload builds the cqgen corpus: a pool of cyclic structures of
// 6–10 atoms at k ∈ {2,3}, cycling through every (atoms, k) class in turn
// so each run plans the same mix of cheap and expensive structures. Every
// fourth operation is a first sighting of a plan key; the others are
// renamed variants (cqgen.Renamed, a fresh tag each) of a key sighted at
// least two first sightings earlier, so a variant rarely races its
// original. The first pass over the pool sights new structures; later
// passes sight the same structures in other tenants, over redrawn
// statistics, so the planner weighs anew while the pool — and the
// server's cache of search contexts — stays a fixed size.
func planWorkload(name string, seed int64, sz sizes, replicas int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{Name: name, Replicas: replicas, TraceOps: sz.traceOps}
	pool := make([]*cqgen.Instance, sz.pool)
	for j := range pool {
		inst, err := prefixed(rng, 6+(j/2)%5, fmt.Sprintf("s%d_", j))
		if err != nil {
			return nil, err
		}
		pool[j] = inst
	}
	tenants := map[string]*db.Catalog{}
	var order []string
	for c := 0; c < sz.colds; c++ {
		j, v := c%len(pool), c/len(pool)
		cat := pool[j].Catalog
		if v > 0 {
			var err error
			if cat, err = redraw(rng, cat); err != nil {
				return nil, err
			}
		}
		if err := cat.AnalyzeAll(); err != nil {
			return nil, err
		}
		tenant := fmt.Sprintf("t%d-%02d", v, j%planGroups)
		if tenants[tenant] == nil {
			tenants[tenant] = db.NewCatalog()
			order = append(order, tenant)
		}
		for _, rn := range cat.Names() {
			tenants[tenant].Put(cat.Get(rn))
		}
		w.cases = append(w.cases, planCase{Query: pool[j].Query, Cat: cat, K: 2 + j%2, Tenant: tenant})
	}
	for _, t := range order {
		tc, err := newTenantCatalog(t, tenants[t])
		if err != nil {
			return nil, err
		}
		w.Catalogs = append(w.Catalogs, tc)
	}
	planOp := func(c int, q *cq.Query) op {
		return op{Kind: opPlan, Tenant: w.cases[c].Tenant, Query: q.String(), K: w.cases[c].K, Form: c}
	}
	sighted := 0
	for i := 0; i < 4*sz.colds; i++ {
		if i%4 == 0 {
			w.Ops = append(w.Ops, planOp(sighted, w.cases[sighted].Query))
			sighted++
			continue
		}
		c := rng.Intn(max(1, sighted-2))
		w.Ops = append(w.Ops, planOp(c, cqgen.Renamed(w.cases[c].Query, fmt.Sprintf("v%d", i))))
	}
	// Warm-up plans structures of a dedicated tenant outside the corpus.
	warm := db.NewCatalog()
	for i := 0; i < 8; i++ {
		inst, err := prefixed(rng, 6, fmt.Sprintf("w%d_", i))
		if err != nil {
			return nil, err
		}
		for _, rn := range inst.Catalog.Names() {
			warm.Put(inst.Catalog.Get(rn))
		}
		w.Warmup = append(w.Warmup, op{Kind: opPlan, Tenant: "warmup", Query: inst.Query.String(), K: 2, Form: -1})
	}
	tc, err := newTenantCatalog("warmup", warm)
	if err != nil {
		return nil, err
	}
	w.Catalogs = append(w.Catalogs, tc)
	w.Probe = statsProbe(w.Catalogs[:4], probePatches)
	return w, nil
}

// prefixed generates a cyclic cqgen instance whose relation names carry
// prefix, so many instances can share one tenant catalog.
func prefixed(rng *rand.Rand, atoms int, prefix string) (*cqgen.Instance, error) {
	inst, err := cqgen.Generate(rng, cqgen.Config{Atoms: atoms, Cyclic: true})
	if err != nil {
		return nil, err
	}
	for i := range inst.Query.Atoms {
		inst.Query.Atoms[i].Predicate = prefix + inst.Query.Atoms[i].Predicate
	}
	cat := db.NewCatalog()
	for _, rn := range inst.Catalog.Names() {
		r := inst.Catalog.Get(rn).Clone()
		r.Name = prefix + rn
		cat.Put(r)
	}
	inst.Catalog = cat
	return inst, nil
}

// redraw regenerates a structure's relations with fresh cardinalities and
// selectivities, drawn as cqgen draws them.
func redraw(rng *rand.Rand, cat *db.Catalog) (*db.Catalog, error) {
	out := db.NewCatalog()
	for _, rn := range cat.Names() {
		r := cat.Get(rn)
		card := 4 + rng.Intn(13)
		spec := db.Spec{Name: rn, Attrs: r.Attrs, Card: card, Distinct: map[string]int{}}
		for _, a := range r.Attrs {
			spec.Distinct[a] = 1 + rng.Intn(card)
		}
		nr, err := db.Generate(rng, spec)
		if err != nil {
			return nil, err
		}
		out.Put(nr)
	}
	return out, nil
}

// probePatches is the length of the PATCH probe.
const probePatches = 300

// statsProbe is a fixed sequence of stats-only deltas over the given
// tenants: each relation in turn is perturbed and then restored, so every
// delta changes the catalog and the probe leaves the statistics as it
// found them.
func statsProbe(tcs []tenantCatalog, n int) []op {
	var out []op
	for i := 0; len(out) < n; i++ {
		tc := tcs[i%len(tcs)]
		names := tc.Cat.Names()
		rel := names[(i/len(tcs))%len(names)]
		for _, perturb := range []bool{true, false} {
			out = append(out, op{Kind: opPatch, Tenant: tc.Tenant, Body: statsDelta(tc.Cat, rel, perturb), Dataset: -1})
		}
	}
	return out
}

// statsDelta renders an `analyze` block for rel: its true statistics, or
// with the cardinality bumped by one when perturb is set.
func statsDelta(cat *db.Catalog, rel string, perturb bool) string {
	st := cat.Stats(rel)
	if st == nil {
		if _, err := cat.Analyze(rel); err != nil {
			panic(err)
		}
		st = cat.Stats(rel)
	}
	card := st.Card
	if perturb {
		card++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "analyze %s card %d\n", rel, card)
	for _, a := range cat.Get(rel).Attrs {
		fmt.Fprintf(&b, "%s %d\n", a, st.Distinct[a])
	}
	b.WriteString("end\n")
	return b.String()
}

// streamGroups is the join-key domain of stream-large: an answer has about
// rows²/streamGroups rows.
const streamGroups = 16

// streamWorkload builds stream-large: left relations l0..l3(a,b), right
// relations r0..r3(b,c) and a filter f(c), all with unique a and c, so each
// m:n join l_i ⋈ r_j (optionally ⋈ f) answers ~rows²/16 distinct (a,c)
// rows (~250k, ~8 MiB of result-cache accounting, at 2000 rows). Twelve of
// the sixteen pairs, chosen and ordered by the seed, form the cycle — about
// 1.5× the default 64 MiB result-cache budget, so the LRU misses on every
// request.
func streamWorkload(seed int64, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	// One client: rows_per_s is then one stream's rate through the engine
	// and the encoder, not a share of two streams contending for two CPUs
	// (which doubled its run-to-run spread).
	w := &workload{Name: "stream-large", Replicas: 1, TraceOps: 12, Clients: 1}
	cat := db.NewCatalog()
	n := sz.streamRows
	for i := 0; i < 4; i++ {
		l := db.NewRelation(fmt.Sprintf("l%d", i), "a", "b")
		r := db.NewRelation(fmt.Sprintf("r%d", i), "b", "c")
		for x := 0; x < n; x++ {
			l.MustAppend(int32(x), int32(rng.Intn(streamGroups)))
			r.MustAppend(int32(rng.Intn(streamGroups)), int32(x))
		}
		cat.Put(l)
		cat.Put(r)
	}
	f := db.NewRelation("f", "c")
	for x := 0; x < n; x++ {
		if x%16 != 0 {
			f.MustAppend(int32(x))
		}
	}
	cat.Put(f)
	if err := cat.AnalyzeAll(); err != nil {
		return nil, err
	}
	tc, err := newTenantCatalog("large", cat)
	if err != nil {
		return nil, err
	}
	w.Catalogs = []tenantCatalog{tc}
	large := &execTenant{K: 2, Datasets: []*db.Catalog{cat}}
	w.execs = map[string]*execTenant{"large": large}
	pairs := rng.Perm(16)[:12]
	for fi, p := range pairs {
		text := fmt.Sprintf("ans(A,C) :- l%d(A,B), r%d(B,C)", p/4, p%4)
		if fi%3 == 2 {
			text += ", f(C)"
		}
		q, err := cq.Parse(text)
		if err != nil {
			return nil, err
		}
		large.Forms = append(large.Forms, q)
		w.Ops = append(w.Ops, op{Kind: opExec, Tenant: "large", Query: q.String(), K: large.K, Form: fi})
	}
	w.Warmup = append([]op(nil), w.Ops...)
	w.Probe = statsProbe(w.Catalogs, probePatches)
	return w, nil
}

// churnPatchEvery is N in "every Nth operation is a PATCH". At 4, about a
// quarter of the executes re-evaluate after a data delta, most of them Q1
// forms, so the latency p90 sits inside the Q1 evaluations rather than on
// an edge between replays, Q2/Q3 evaluations and Q1 evaluations, where it
// would swing from run to run.
const churnPatchEvery = 4

// churnFixtureSeed generates execute-churn's catalogs.
const churnFixtureSeed = 20040614

// churnWorkload builds execute-churn: renamed variants of the paper's Q1
// (Boolean and two small-head forms) at scale 0.2, Q2 and Q3 over their
// bench catalogs, each sized so one evaluation costs ~0.1 s. Every 4th
// operation is a PATCH; PATCHes rotate over the tenants and alternate
// between a stats-only `analyze` block and replacing one relation's data
// with the other of its two datasets. The catalogs are fixtures, like the
// paper's: generated from one fixed seed, so every run evaluates the same
// data and the run seed varies the traffic — the forms, renamings and
// PATCH schedule.
func churnWorkload(seed int64, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	fixtures := rand.New(rand.NewSource(churnFixtureSeed))
	w := &workload{Name: "execute-churn", Replicas: 1, TraceOps: 120, Writer: true, execs: map[string]*execTenant{}}
	q1, q2, q3 := 0.2, 200.0, 350.0
	if sz.short {
		q1, q2, q3 = 0.05, 60.0, 120.0
	}
	type tenantSpec struct {
		name    string
		build   func(r *rand.Rand, scale float64) (*db.Catalog, error)
		forms   []string
		k       int
		dataRel string // relation the data deltas replace
		statRel string // relation the stats deltas restate
	}
	q1Body := strings.TrimSuffix(strings.SplitN(cq.Q1().String(), ":- ", 2)[1], ".")
	specs := []tenantSpec{
		{"q1", func(r *rand.Rand, f float64) (*db.Catalog, error) { return bench.BuildQ1Catalog(r, q1*f) },
			[]string{"ans() :- " + q1Body, "ans(Z) :- " + q1Body, "ans(S,Z) :- " + q1Body}, 3, "d", "g"},
		{"q2", func(r *rand.Rand, f float64) (*db.Catalog, error) {
			return db.GenerateCatalog(r, bench.Q2Specs(int(q2*f)))
		},
			[]string{cq.Q2().String()}, 2, "r5", "r6"},
		{"q3", func(r *rand.Rand, f float64) (*db.Catalog, error) {
			return db.GenerateCatalog(r, bench.Q3Specs(int(q3*f)))
		},
			[]string{cq.Q3().String()}, 2, "t4", "t7"},
	}
	var dataPatches [][2]string // per tenant: dataset 0 and 1 relation blocks
	for _, s := range specs {
		base, err := s.build(fixtures, 1)
		if err != nil {
			return nil, err
		}
		if err := base.AnalyzeAll(); err != nil {
			return nil, err
		}
		// The alternative dataset regenerates the data relation at 90% of
		// its size, so its statistics — and with them the plan key —
		// change too: a data delta forces a re-plan and a re-evaluation.
		alt0, err := s.build(fixtures, 0.9)
		if err != nil {
			return nil, err
		}
		alt := base.Clone()
		alt.Upsert(alt0.Get(s.dataRel).Clone())
		if err := alt.AnalyzeAll(); err != nil {
			return nil, err
		}
		et := &execTenant{K: s.k, Datasets: []*db.Catalog{base, alt}}
		w.execs[s.name] = et
		tc, err := newTenantCatalog(s.name, base)
		if err != nil {
			return nil, err
		}
		w.Catalogs = append(w.Catalogs, tc)
		var blocks [2]string
		for d, c := range []*db.Catalog{base, alt} {
			var b bytes.Buffer
			if err := db.WriteRelation(&b, c.Get(s.dataRel)); err != nil {
				return nil, err
			}
			blocks[d] = b.String()
		}
		dataPatches = append(dataPatches, blocks)
		for fi, text := range s.forms {
			q, err := cq.Parse(text)
			if err != nil {
				return nil, err
			}
			et.Forms = append(et.Forms, q)
			w.Warmup = append(w.Warmup, op{Kind: opExec, Tenant: s.name, Query: q.String(), K: s.k, Form: fi})
		}
	}
	// Executes walk the (tenant, form) pairs in seeded shuffles of the
	// whole set, so every run sends the same mix of forms.
	type form struct{ spec, form int }
	var forms, block []form
	for si, s := range specs {
		for fi := range s.forms {
			forms = append(forms, form{si, fi})
		}
	}
	offset := rng.Intn(churnPatchEvery)
	patches := 0
	dataset := make([]int, len(specs))
	for i := 0; i < 4096; i++ {
		if i%churnPatchEvery == offset {
			ti := patches % len(specs)
			s := specs[ti]
			if (patches/len(specs))%2 == 0 {
				perturb := (patches/(2*len(specs)))%2 == 0
				w.Ops = append(w.Ops, op{Kind: opPatch, Tenant: s.name, Dataset: -1,
					Body: statsDelta(w.execs[s.name].Datasets[0], s.statRel, perturb)})
			} else {
				dataset[ti] = 1 - dataset[ti]
				w.Ops = append(w.Ops, op{Kind: opPatch, Tenant: s.name, Dataset: dataset[ti],
					Body: dataPatches[ti][dataset[ti]]})
			}
			patches++
			continue
		}
		if len(block) == 0 {
			block = append(block, forms...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		f := block[0]
		block = block[1:]
		s := specs[f.spec]
		q := cqgen.Renamed(w.execs[s.name].Forms[f.form], fmt.Sprintf("v%d", rng.Intn(8)))
		w.Ops = append(w.Ops, op{Kind: opExec, Tenant: s.name, Query: q.String(), K: s.k, Form: f.form})
	}
	// The sequence wraps: restore every tenant's dataset 0 at the end so
	// a wrapped pass starts from the state the first pass did.
	for ti, s := range specs {
		if dataset[ti] != 0 {
			w.Ops = append(w.Ops, op{Kind: opPatch, Tenant: s.name, Dataset: 0, Body: dataPatches[ti][0]})
		}
	}
	if sz.short {
		w.TraceOps = 60
	}
	return w, nil
}
