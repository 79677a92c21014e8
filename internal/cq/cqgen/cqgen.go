// Package cqgen generates seeded random conjunctive queries together with
// matching synthetic catalogs — the fuel of the property-based differential
// suites that pin self-join planning, warm-search plan determinism, and cache
// canonicalization. Generation is deterministic per (seed, Config): equal
// inputs produce byte-identical instances, so failures reproduce from the
// seed alone.
package cqgen

import (
	"fmt"
	"math/rand"

	"repro/internal/cq"
	"repro/internal/db"
)

// Config controls the shape of generated queries. The zero value is
// normalized by withDefaults to a small, connected, mixed workload.
type Config struct {
	// Atoms is the number of body atoms. Default 4.
	Atoms int
	// MaxArity bounds relation width (arity drawn uniformly from
	// [1, MaxArity]). Default 3.
	MaxArity int
	// VarReuse is the probability that a non-linking position reuses an
	// existing variable (cyclic mode only). Default 0.35.
	VarReuse float64
	// SelfJoin is the probability that an atom reuses an already-referenced
	// relation instead of introducing a new one — the knob that produces
	// self-joins. Default 0.
	SelfJoin float64
	// Cyclic selects the shape: false grows a join tree (each atom shares
	// variables with exactly one earlier atom — α-acyclic by construction);
	// true links each atom into the existing variable pool, which freely
	// creates cycles (triangles, theta-cycles, ...). Default false.
	Cyclic bool
	// MaxCard bounds relation cardinality (drawn from [4, MaxCard]).
	// Default 16 — small enough for naive-evaluation oracles.
	MaxCard int
	// MaxOut bounds the number of output variables (drawn from
	// [0, MaxOut]). Default 2; negative forces Boolean queries.
	MaxOut int
}

func (c Config) withDefaults() Config {
	if c.Atoms <= 0 {
		c.Atoms = 4
	}
	if c.MaxArity <= 0 {
		c.MaxArity = 3
	}
	if c.VarReuse <= 0 {
		c.VarReuse = 0.35
	}
	if c.MaxCard < 4 {
		c.MaxCard = 16
	}
	if c.MaxOut == 0 {
		c.MaxOut = 2
	} else if c.MaxOut < 0 {
		c.MaxOut = 0
	}
	return c
}

// Instance is one generated (query, catalog) pair. The catalog is analyzed
// and holds one base relation per distinct predicate; self-join atoms are
// aliased (cq.AutoAlias naming), so the query always validates.
type Instance struct {
	Query   *cq.Query
	Catalog *db.Catalog
}

// Generate builds a random valid instance. Queries are connected, atoms
// never repeat a variable within themselves (so positional binding is a
// bijection), and every relation of the catalog carries exact ANALYZE
// statistics.
func Generate(rng *rand.Rand, cfg Config) (*Instance, error) {
	cfg = cfg.withDefaults()

	type relInfo struct {
		name  string
		arity int
	}
	var rels []relInfo
	newVar := func(vars *[]string) string {
		v := fmt.Sprintf("V%d", len(*vars))
		*vars = append(*vars, v)
		return v
	}
	var pool []string // every variable in first-use order
	var atoms []cq.Atom

	for i := 0; i < cfg.Atoms; i++ {
		var rel relInfo
		if len(rels) > 0 && rng.Float64() < cfg.SelfJoin {
			rel = rels[rng.Intn(len(rels))]
		} else {
			rel = relInfo{name: fmt.Sprintf("r%d", len(rels)), arity: 1 + rng.Intn(cfg.MaxArity)}
			rels = append(rels, rel)
		}
		used := map[string]bool{}
		vars := make([]string, 0, rel.arity)
		take := func(v string) {
			vars = append(vars, v)
			used[v] = true
		}
		if i == 0 {
			for len(vars) < rel.arity {
				take(newVar(&pool))
			}
		} else if cfg.Cyclic {
			// Link through the pool; every later position may reuse too.
			take(pool[rng.Intn(len(pool))])
			for len(vars) < rel.arity {
				if rng.Float64() < cfg.VarReuse {
					v := pool[rng.Intn(len(pool))]
					if !used[v] {
						take(v)
						continue
					}
				}
				take(newVar(&pool))
			}
		} else {
			// Join-tree growth: share a nonempty subset of one earlier
			// atom's variables, everything else fresh — α-acyclic shape.
			prev := atoms[rng.Intn(len(atoms))]
			shared := 1
			if m := min(rel.arity, len(prev.Vars)); m > 1 {
				shared += rng.Intn(m)
			}
			perm := rng.Perm(len(prev.Vars))
			for _, pi := range perm {
				if len(vars) == shared {
					break
				}
				if v := prev.Vars[pi]; !used[v] {
					take(v)
				}
			}
			for len(vars) < rel.arity {
				take(newVar(&pool))
			}
			rng.Shuffle(len(vars), func(a, b int) { vars[a], vars[b] = vars[b], vars[a] })
		}
		atoms = append(atoms, cq.Atom{Predicate: rel.name, Vars: vars})
	}

	q := &cq.Query{Head: "ans", Atoms: atoms}
	if cfg.MaxOut > 0 {
		nOut := rng.Intn(cfg.MaxOut + 1)
		perm := rng.Perm(len(pool))
		for _, pi := range perm[:min(nOut, len(pool))] {
			q.Out = append(q.Out, pool[pi])
		}
	}
	q.AutoAlias()
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("cqgen: generated invalid query %s: %w", q, err)
	}

	specs := make([]db.Spec, 0, len(rels))
	for _, rel := range rels {
		card := 4 + rng.Intn(cfg.MaxCard-3)
		attrs := make([]string, rel.arity)
		distinct := make(map[string]int, rel.arity)
		for a := 0; a < rel.arity; a++ {
			attrs[a] = fmt.Sprintf("c%d", a)
			distinct[attrs[a]] = 1 + rng.Intn(card)
		}
		specs = append(specs, db.Spec{Name: rel.name, Attrs: attrs, Card: card, Distinct: distinct})
	}
	cat, err := db.GenerateCatalog(rng, specs)
	if err != nil {
		return nil, fmt.Errorf("cqgen: %w", err)
	}
	if err := cat.AnalyzeAll(); err != nil {
		return nil, fmt.Errorf("cqgen: %w", err)
	}
	return &Instance{Query: q, Catalog: cat}, nil
}

// MustGenerate is Generate but panics on error; generation errors are
// always cqgen bugs, so tests use this form.
func MustGenerate(rng *rand.Rand, cfg Config) *Instance {
	inst, err := Generate(rng, cfg)
	if err != nil {
		panic(err)
	}
	return inst
}

// HasSelfJoin reports whether the instance's query uses some base relation
// more than once.
func (inst *Instance) HasSelfJoin() bool {
	seen := map[string]bool{}
	for _, a := range inst.Query.Atoms {
		if seen[a.Predicate] {
			return true
		}
		seen[a.Predicate] = true
	}
	return false
}

// CopyOracle returns the self-join oracle of the instance: a structurally
// identical query in which every atom's predicate is its atom name (aliases
// cleared), over a catalog that physically stores one copy of the base
// relation per alias. Planning and evaluating the oracle must agree
// bit-for-bit with the aliased original — same hypergraph (edge names and
// fresh variables coincide), same statistics (copies ANALYZE identically),
// hence the same search and the same plan.
func (inst *Instance) CopyOracle() (*cq.Query, *db.Catalog, error) {
	oq := &cq.Query{Head: inst.Query.Head, Out: append([]string(nil), inst.Query.Out...)}
	ocat := db.NewCatalog()
	for _, a := range inst.Query.Atoms {
		rel := inst.Catalog.Get(a.Predicate)
		if rel == nil {
			return nil, nil, fmt.Errorf("cqgen: no relation %s in catalog", a.Predicate)
		}
		copyRel := rel.Clone()
		copyRel.Name = a.Name()
		ocat.Put(copyRel)
		oq.Atoms = append(oq.Atoms, cq.Atom{Predicate: a.Name(), Vars: append([]string(nil), a.Vars...)})
	}
	if err := ocat.AnalyzeAll(); err != nil {
		return nil, nil, err
	}
	return oq, ocat, nil
}

// Renamed returns a copy of the query with every variable and every alias
// suffixed by "_"+tag, and the atom order reversed — a structurally
// identical query that shares no variable or alias names with the original
// (the suffixing is injective, so distinct names stay distinct). Cache
// canonicalization must map it onto the same entry. The tag must be chosen
// so no suffixed alias collides with a bare atom name of the query.
func Renamed(q *cq.Query, tag string) *cq.Query {
	out := &cq.Query{Head: q.Head}
	for i := len(q.Atoms) - 1; i >= 0; i-- {
		a := q.Atoms[i]
		vars := make([]string, len(a.Vars))
		for j, v := range a.Vars {
			vars[j] = v + "_" + tag
		}
		alias := ""
		if a.Alias != "" {
			alias = a.Alias + "_" + tag
		}
		out.Atoms = append(out.Atoms, cq.Atom{Predicate: a.Predicate, Alias: alias, Vars: vars})
	}
	for _, v := range q.Out {
		out.Out = append(out.Out, v+"_"+tag)
	}
	return out
}
