package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/workload"
)

// op names one request type. Every workload issues all four, so every
// run reports the same metric set.
type op int

const (
	opDelete op = iota
	opInsert
	opQuery
	opAnnotate
	numOps
)

var opNames = [numOps]string{"delete", "insert", "query", "annotate"}

func (o op) String() string { return opNames[o] }

// sessKind is what one scheduled session does.
type sessKind int

const (
	// sessWrite: one POST /delete, then POST /insert of exactly the
	// reported deletions (one request per source relation touched, timed
	// together as one restore).
	sessWrite sessKind = iota
	// sessRead: GET /query of one page, then POST /annotate of one cell.
	sessRead
	// sessQuery / sessAnnotate: a single read.
	sessQuery
	sessAnnotate
	// sessInsertFresh inserts a new Protein row; the matching
	// sessDeleteFresh later deletes its view tuple (objective view).
	sessInsertFresh
	sessDeleteFresh
)

// session is one unit of the seeded operation stream.
type session struct {
	id     int
	kind   sessKind
	target relation.Tuple // sessWrite / sessDeleteFresh: the view tuple to delete
	obj    core.Objective

	offset int // query page offset
	cell   relation.Tuple
	attr   relation.Attribute

	fresh     relation.SourceTuple // sessInsertFresh / sessDeleteFresh: the Protein row
	freshView relation.Tuple       // its view tuple
	pair      int                  // sessDeleteFresh: id of the inserting session
}

// ops lists the request types the session issues (a write session's
// restore counts once, though it may take one insert per relation).
func (s session) ops() []op {
	switch s.kind {
	case sessWrite:
		return []op{opDelete, opInsert}
	case sessRead:
		return []op{opQuery, opAnnotate}
	case sessQuery:
		return []op{opQuery}
	case sessAnnotate:
		return []op{opAnnotate}
	case sessInsertFresh:
		return []op{opInsert}
	default:
		return []op{opDelete}
	}
}

// sizes are a workload's generator parameters.
type sizes struct {
	users, groups, files, maxGroups, maxShares int // UserGroup/GroupFile
	genes, proteinsPerGene                     int // curation
}

// spec is one benchmark workload: the paper schema it runs on, the
// database sizes, the session mix and the fixed open-loop offered rate.
type spec struct {
	name  string
	view  string // prepared view name
	query string // its query, as passed to propviewd -prepare
	full  sizes
	toy   sizes
	rate  float64 // offered sessions per second (open loop)
	// readEvery makes every readEvery-th session of the UGF workload a
	// read session.
	readEvery int
	mix       func(st *stream, slot int) session
}

// pageSize is the row limit of every GET /query page.
const pageSize = 100

const (
	ugfQuery      = "project(user, file; join(UserGroup, GroupFile))"
	curationQuery = "project(gene, organism, protein, function; join(Gene, Protein))"
)

var specs = []*spec{
	{
		name:      "ugf-point-delete",
		view:      "access",
		query:     ugfQuery,
		full:      sizes{users: 700, groups: 100, files: 700, maxGroups: 3, maxShares: 3},
		toy:       sizes{users: 40, groups: 8, files: 40, maxGroups: 3, maxShares: 3},
		rate:      12,
		readEvery: 6,
		mix:       pointMix,
	},
	{
		name:  "curation-read",
		view:  "curated",
		query: curationQuery,
		full:  sizes{genes: 5000, proteinsPerGene: 4},
		toy:   sizes{genes: 60, proteinsPerGene: 4},
		rate:  24,
		mix:   curationMix,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is a generated input: the source database, the view query and
// the initial view the operation stream draws its targets from.
type instance struct {
	spec  *spec
	sz    sizes
	db    *relation.Database
	q     algebra.Query
	view  []relation.Tuple // initial view, sorted
	attrs []relation.Attribute
	// byUser groups UGF view tuples by user for zipf-chosen targets;
	// users is the key order.
	byUser map[string][]relation.Tuple
	users  []string
	// organism of each curation gene, to build a fresh protein's view tuple.
	organism map[string]relation.Value
	genes    []string
	seed     int64
}

// generate builds the workload's database from seed. The same seed gives
// the same database and, through newStream, the same operation stream.
func generate(sp *spec, seed int64, toy bool) (*instance, error) {
	sz := sp.full
	if toy {
		sz = sp.toy
	}
	r := rand.New(rand.NewSource(seed))
	var db *relation.Database
	switch sp.query {
	case ugfQuery:
		db, _ = workload.UserGroupFile(r, sz.users, sz.groups, sz.files, sz.maxGroups, sz.maxShares)
	default:
		db, _ = workload.Curation(r, sz.genes, sz.proteinsPerGene)
	}
	q, err := algebra.Parse(sp.query)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", sp.query, err)
	}
	v, err := algebra.Eval(q, db)
	if err != nil {
		return nil, fmt.Errorf("evaluating %s: %w", sp.query, err)
	}
	in := &instance{spec: sp, sz: sz, db: db, q: q, view: v.SortedTuples(), attrs: v.Schema().Attrs(), seed: seed}
	if sp.query == ugfQuery {
		in.byUser = make(map[string][]relation.Tuple)
		for _, t := range in.view {
			u := t[0].String()
			if in.byUser[u] == nil {
				in.users = append(in.users, u)
			}
			in.byUser[u] = append(in.byUser[u], t)
		}
	} else {
		in.organism = make(map[string]relation.Value)
		for _, t := range db.Relation("Gene").Tuples() {
			in.organism[t[0].String()] = t[1]
			in.genes = append(in.genes, t[0].String())
		}
		sort.Strings(in.genes)
	}
	return in, nil
}

// stream is the seeded operation stream of one instance. It is not safe
// for concurrent use; the load generator serializes next.
type stream struct {
	in       *instance
	r        *rand.Rand
	userZipf *rand.Zipf
	pageZipf *rand.Zipf
	rank     []int // zipf rank -> user index
	slot     int
	writes   int
	fresh    int
	lastIns  *session
}

// newStream starts the operation stream for in. Its randomness is
// independent of the database generator's but derived from the same seed.
func newStream(in *instance) *stream {
	r := rand.New(rand.NewSource(in.seed*7919 + 17))
	st := &stream{in: in, r: r}
	pages := (len(in.view) + pageSize - 1) / pageSize
	if pages < 2 {
		pages = 2
	}
	st.pageZipf = rand.NewZipf(r, 1.1, 1, uint64(pages-1))
	if n := len(in.users); n > 1 {
		// v=10 flattens the head: hot users exist, but no single user's
		// group structure decides the run, so seeds are comparable.
		st.userZipf = rand.NewZipf(r, 1.1, 10, uint64(n-1))
		st.rank = r.Perm(n)
	}
	return st
}

func (st *stream) next() session {
	s := st.in.spec.mix(st, st.slot)
	s.id = st.slot
	st.slot++
	return s
}

func (st *stream) readSession() session {
	return session{kind: sessRead, offset: st.pageOffset(), cell: st.cell(), attr: st.attr()}
}

func (st *stream) pageOffset() int {
	return int(st.pageZipf.Uint64()) * pageSize
}

func (st *stream) cell() relation.Tuple { return st.in.view[st.r.Intn(len(st.in.view))] }

func (st *stream) attr() relation.Attribute { return st.in.attrs[st.r.Intn(len(st.in.attrs))] }

// pointMix: one write session per slot, a read session every readEvery
// slots; writes cycle source, source, source, view objectives (3:1).
func pointMix(st *stream, slot int) session {
	if e := st.in.spec.readEvery; e > 0 && slot%e == e-1 {
		return st.readSession()
	}
	u := st.in.users[st.rank[int(st.userZipf.Uint64())]]
	ts := st.in.byUser[u]
	obj := core.MinimizeSourceDeletions
	if st.writes%4 == 3 {
		obj = core.MinimizeViewSideEffects
	}
	st.writes++
	return session{kind: sessWrite, target: ts[st.r.Intn(len(ts))], obj: obj}
}

// curationMix cycles ten slots: five page reads, four annotations and one
// write. Writes alternate between inserting a fresh protein and deleting
// the view tuple of the one inserted at the previous write slot.
func curationMix(st *stream, slot int) session {
	switch {
	case slot%10 == 9:
		st.writes++
		if st.lastIns != nil {
			ins := st.lastIns
			st.lastIns = nil
			return session{kind: sessDeleteFresh, fresh: ins.fresh, freshView: ins.freshView, pair: ins.id,
				target: ins.freshView, obj: core.MinimizeViewSideEffects}
		}
		g := st.in.genes[st.r.Intn(len(st.in.genes))]
		fn := []string{"kinase", "ligase", "receptor", "transport", "unknown"}[st.r.Intn(5)]
		p := "N" + strconv.FormatInt(st.in.seed, 10) + "_" + strconv.Itoa(st.fresh)
		st.fresh++
		row := relation.Tuple{relation.ParseValue(g, true), relation.ParseValue(p, true), relation.ParseValue(fn, true)}
		cols := map[relation.Attribute]relation.Value{
			"gene": row[0], "organism": st.in.organism[g], "protein": row[1], "function": row[2]}
		view := make(relation.Tuple, len(st.in.attrs))
		for i, a := range st.in.attrs {
			view[i] = cols[a]
		}
		s := session{kind: sessInsertFresh, fresh: relation.SourceTuple{Rel: "Protein", Tuple: row}, freshView: view}
		s.id = slot
		st.lastIns = &s
		return s
	case slot%2 == 0:
		return session{kind: sessQuery, offset: st.pageOffset()}
	default:
		return session{kind: sessAnnotate, cell: st.cell(), attr: st.attr()}
	}
}
