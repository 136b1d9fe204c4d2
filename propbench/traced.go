package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// span is one timed call at a layer boundary. Engine spans are roots;
// the shadow replay's layer calls are their children. Times are
// microseconds since the traced run started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Op     int     `json:"op"`     // operation id: the session id
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// record appends a span and returns its id.
func (tr *tracer) record(name string, parent, opID int, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: opID, Name: name,
		Start: float64(start.Sub(tr.t0)) / 1e3, End: float64(end.Sub(tr.t0)) / 1e3})
	return id
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtime/metrics samples read around engine calls.
const (
	rmAllocs   = "/gc/heap/allocs:objects"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmAllCPU   = "/cpu/classes/total:cpu-seconds"
	rmLiveHeap = "/gc/heap/live:bytes"
)

func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// layerStats is what the traced pass measured, per layer.
type layerStats struct {
	eng, self, allocs     [numOps][]float64
	solve                 []float64
	candidates            []float64
	scanned               []float64
	yield                 []float64
	deleted, sideEff      []float64
	applyDel, applyIns    []float64
	whereDel              []float64
	place, placeScan      []float64
	computeWhere          []float64
	sortMs                []float64
	delAll, insAll        []float64 // microseconds
	sortHit, sortMiss     int
	whereHit, whereMiss   int
	writes, ops           int
	touched, rewritten    int64
	internHit, internMiss int64
	compactions           int64
	mapDepth, relDepth    int
	gcCPU, allCPU         float64
}

// replayer executes sessions serially against an engine and, when shadow
// is set, replays each one through the layer packages' exported functions
// on a shadow state, checking that both agree.
type replayer struct {
	in     *instance
	e      *engine.Engine
	width  int
	shadow bool
	tr     *tracer
	ls     *layerStats

	plan   algebra.Query
	sdb    *relation.Database
	sprov  *provenance.Result
	swhere *annotation.WhereView // nil: cold, rebuilt by the next annotate
	sorted []relation.Tuple      // nil: invalidated by a write

	attempted  int
	mismatches int      // engine results the shadow replay disagreed with
	notes      []string // the first few, for the report
}

func (x *replayer) failf(format string, args ...any) {
	x.mismatches++
	if len(x.notes) < 10 {
		x.notes = append(x.notes, fmt.Sprintf(format, args...))
	}
}

// engineCall times one engine call and records its root span and allocs.
func (x *replayer) engineCall(o op, opID int, call func()) (int, time.Duration) {
	x.attempted++
	a0 := readRuntime(rmAllocs)[0]
	start := time.Now()
	call()
	end := time.Now()
	a1 := readRuntime(rmAllocs)[0]
	x.ls.eng[o] = append(x.ls.eng[o], ms(end.Sub(start)))
	x.ls.allocs[o] = append(x.ls.allocs[o], a1-a0)
	x.ls.ops++
	id := 0
	if x.tr != nil {
		id = x.tr.record("engine."+o.String(), 0, opID, start, end)
	}
	return id, end.Sub(start)
}

// child times one shadow layer call as a child span of parent.
func (x *replayer) child(name string, parent, opID int, call func()) time.Duration {
	start := time.Now()
	call()
	end := time.Now()
	x.tr.record(name, parent, opID, start, end)
	return end.Sub(start)
}

func sourceKeys(ts []relation.SourceTuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func tupleKeys(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (x *replayer) run(s session) {
	switch s.kind {
	case sessWrite:
		if T := x.delete(s.id, s.target, s.obj); T != nil {
			byRel := map[string][]relation.SourceTuple{}
			for _, st := range T {
				byRel[st.Rel] = append(byRel[st.Rel], st)
			}
			rels := make([]string, 0, len(byRel))
			for r := range byRel {
				rels = append(rels, r)
			}
			sort.Strings(rels)
			for _, r := range rels {
				x.insert(s.id, byRel[r])
			}
		}
	case sessRead:
		x.query(s.id, s.offset)
		x.annotate(s.id, s.cell, s.attr)
	case sessQuery:
		x.query(s.id, s.offset)
	case sessAnnotate:
		x.annotate(s.id, s.cell, s.attr)
	case sessInsertFresh:
		x.insert(s.id, []relation.SourceTuple{s.fresh})
	case sessDeleteFresh:
		T := x.delete(s.id, s.target, s.obj)
		if T != nil && (len(T) != 1 || T[0].Key() != s.fresh.Key()) {
			x.failf("view delete of %v deleted %v, want exactly the inserted protein", s.freshView, T)
		}
	}
}

// delete runs one engine delete and, with the shadow on, the same solve,
// store derive and tree/where maintenance by hand. It returns the
// engine's deletions (nil on error).
func (x *replayer) delete(opID int, target relation.Tuple, obj core.Objective) []relation.SourceTuple {
	var rep *core.DeleteReport
	var err error
	root, d := x.engineCall(opDelete, opID, func() {
		rep, err = x.e.Delete(x.in.spec.view, target, obj, core.DeleteOptions{})
	})
	if err != nil {
		x.failf("engine delete: %v", err)
		return nil
	}
	x.ls.writes++
	if !x.shadow {
		return rep.Result.T
	}
	var res *deletion.Result
	cand := 1
	n := x.sprov.View.Len()
	targets := []relation.Tuple{target}
	children := x.child("deletion.solve", root, opID, func() {
		if obj == core.MinimizeViewSideEffects {
			var r *deletion.ViewExactResult
			if r, err = deletion.ViewExactGroupBasis(x.sprov, targets, deletion.ViewOptions{}); err == nil {
				res, cand = &r.Result, r.Candidates
			}
			return
		}
		var r *deletion.SourceExactResult
		if r, err = deletion.SourceExactGroupBasis(x.sprov, targets); err == nil {
			res = &r.Result
		}
	})
	if err != nil {
		x.failf("shadow solve: %v", err)
		return rep.Result.T
	}
	x.ls.solve = append(x.ls.solve, ms(children))
	x.ls.candidates = append(x.ls.candidates, float64(cand))
	x.ls.scanned = append(x.ls.scanned, float64(cand*n))
	x.ls.yield = append(x.ls.yield, float64(1+len(res.SideEffects))/float64(cand*n))
	x.ls.deleted = append(x.ls.deleted, float64(len(res.T)))
	x.ls.sideEff = append(x.ls.sideEff, float64(len(res.SideEffects)))
	if !sameKeys(sourceKeys(res.T), sourceKeys(rep.Result.T)) ||
		!sameKeys(tupleKeys(res.SideEffects), tupleKeys(rep.Result.SideEffects)) {
		x.failf("delete %v: engine T=%v side effects %d, shadow T=%v side effects %d",
			target, rep.Result.T, len(rep.Result.SideEffects), res.T, len(res.SideEffects))
	}
	T := rep.Result.T
	ss0, ts0 := x.sdb.StoreStats(), x.sprov.TreeStats()
	var newDB *relation.Database
	c := x.child("relation.delete_all", root, opID, func() { newDB = x.sdb.DeleteAll(T) })
	x.ls.delAll = append(x.ls.delAll, float64(c)/1e3)
	children += c
	c = x.child("provenance.apply_delete", root, opID, func() { x.sprov = x.sprov.ApplyDeletionWorkers(newDB, T, x.width) })
	x.ls.applyDel = append(x.ls.applyDel, ms(c))
	children += c
	if x.swhere != nil {
		c = x.child("annotation.apply_delete", root, opID, func() { x.swhere = x.swhere.ApplyDeletionWorkers(T, x.width) })
		x.ls.whereDel = append(x.ls.whereDel, ms(c))
		children += c
	}
	x.sdb, x.sorted = newDB, nil
	x.account(ss0, ts0)
	if rep.ViewSize != x.sprov.View.Len() {
		x.failf("delete: engine view size %d, shadow %d", rep.ViewSize, x.sprov.View.Len())
	}
	x.ls.self[opDelete] = append(x.ls.self[opDelete], ms(d-children))
	return T
}

// account folds the store and tree counter deltas of one shadow write.
func (x *replayer) account(ss0 relation.StoreStats, ts0 provenance.TreeStats) {
	ss1, ts1 := x.sdb.StoreStats(), x.sprov.TreeStats()
	x.ls.compactions += ss1.Compactions - ss0.Compactions
	x.ls.touched += ts1.TouchedTuples - ts0.TouchedTuples
	x.ls.rewritten += ts1.RewrittenNodes - ts0.RewrittenNodes
	x.ls.internHit += ts1.InternHits - ts0.InternHits
	x.ls.internMiss += ts1.InternMisses - ts0.InternMisses
	x.ls.mapDepth, x.ls.relDepth = ts1.MaxMapOverlayDepth, ss1.MaxOverlayDepth
}

func (x *replayer) insert(opID int, tuples []relation.SourceTuple) {
	var rep *engine.InsertReport
	var err error
	root, d := x.engineCall(opInsert, opID, func() { rep, err = x.e.Insert(tuples) })
	if err != nil {
		x.failf("engine insert: %v", err)
		return
	}
	x.ls.writes++
	if len(rep.Inserted) != len(tuples) {
		x.failf("insert: engine inserted %d of %d novel tuples", len(rep.Inserted), len(tuples))
	}
	if !x.shadow {
		return
	}
	ss0, ts0 := x.sdb.StoreStats(), x.sprov.TreeStats()
	var newDB *relation.Database
	children := x.child("relation.insert_all", root, opID, func() { newDB, err = x.sdb.InsertAll(tuples) })
	x.ls.insAll = append(x.ls.insAll, float64(children)/1e3)
	if err != nil {
		x.failf("shadow insert: %v", err)
		return
	}
	var prov *provenance.Result
	c := x.child("provenance.apply_insert", root, opID, func() { prov, err = x.sprov.ApplyInsertionWorkers(newDB, tuples, x.width) })
	x.ls.applyIns = append(x.ls.applyIns, ms(c))
	children += c
	if err != nil {
		x.failf("shadow maintenance: %v", err)
		return
	}
	x.sdb, x.sprov, x.swhere, x.sorted = newDB, prov, nil, nil
	x.account(ss0, ts0)
	if len(rep.Views) != 1 || rep.Views[0].ViewSize != x.sprov.View.Len() {
		x.failf("insert: engine views %v, shadow view size %d", rep.Views, x.sprov.View.Len())
	}
	x.ls.self[opInsert] = append(x.ls.self[opInsert], ms(d-children))
}

func (x *replayer) query(opID, offset int) {
	var page engine.ViewPage
	var err error
	root, d := x.engineCall(opQuery, opID, func() { page, err = x.e.QueryPage(x.in.spec.view, offset, pageSize) })
	if err != nil {
		x.failf("engine query: %v", err)
		return
	}
	if !x.shadow {
		return
	}
	var children time.Duration
	if x.sorted == nil {
		children = x.child("relation.sort", root, opID, func() { x.sorted = x.sprov.View.SortedTuples() })
		x.ls.sortMs = append(x.ls.sortMs, ms(children))
		x.ls.sortMiss++
	} else {
		x.ls.sortHit++
	}
	lo, hi := offset, offset+pageSize
	if lo > len(x.sorted) {
		lo = len(x.sorted)
	}
	if hi > len(x.sorted) {
		hi = len(x.sorted)
	}
	if !sameKeys(tupleKeys(page.Tuples), tupleKeys(x.sorted[lo:hi])) || page.Total != len(x.sorted) {
		x.failf("query offset %d: engine page differs from the shadow's sorted view", offset)
	}
	x.ls.self[opQuery] = append(x.ls.self[opQuery], ms(d-children))
}

func (x *replayer) annotate(opID int, cell relation.Tuple, attr relation.Attribute) {
	var rep *core.AnnotateReport
	var err error
	root, d := x.engineCall(opAnnotate, opID, func() { rep, err = x.e.Annotate(x.in.spec.view, cell, attr) })
	if err != nil {
		x.failf("engine annotate: %v", err)
		return
	}
	if !x.shadow {
		return
	}
	var children time.Duration
	if x.swhere == nil {
		children = x.child("annotation.compute_where", root, opID, func() { x.swhere, err = annotation.ComputeWhere(x.plan, x.sdb) })
		x.ls.computeWhere = append(x.ls.computeWhere, ms(children))
		x.ls.whereMiss++
		if err != nil {
			x.failf("shadow where index: %v", err)
			return
		}
	} else {
		x.ls.whereHit++
	}
	var pl *annotation.Placement
	c := x.child("annotation.place", root, opID, func() { pl, err = annotation.PlaceOn(x.swhere, cell, attr) })
	children += c
	x.ls.place = append(x.ls.place, ms(c))
	x.ls.placeScan = append(x.ls.placeScan, float64(x.swhere.View.Len()))
	if err != nil {
		x.failf("shadow placement: %v", err)
		return
	}
	if pl.Source.Key() != rep.Placement.Source.Key() {
		x.failf("annotate %v.%s: engine placed on %v, shadow on %v", cell, attr, rep.Placement.Source, pl.Source)
	}
	x.ls.self[opAnnotate] = append(x.ls.self[opAnnotate], ms(d-children))
}

// traceResult is what the traced run measured.
type traceResult struct {
	ls         *layerStats
	parseS     float64
	planEvalS  float64
	computeS   float64
	heapLiveMB float64
	overhead   float64 // engine-span p50 with tracing on / off, minus 1
	sessions   int
	attempted  int
	mismatches int
	notes      []string
}

// tracedRun is the in-process serial replay. Pass one records spans and
// runs the shadow replay for up to budget; pass two replays the same
// sessions on a fresh engine with both switched off, for the overhead.
func tracedRun(in *instance, budget time.Duration, spansPath string) (*traceResult, error) {
	res := &traceResult{}
	text := relation.WriteDatabaseString(in.db)
	t := time.Now()
	db, err := relation.ReadDatabaseString(text)
	if err != nil {
		return nil, fmt.Errorf("parsing generated database: %w", err)
	}
	res.parseS = time.Since(t).Seconds()

	t = time.Now()
	plan := algebra.OptimizeJoins(algebra.Normalize(in.q), db)
	if _, err := algebra.Eval(plan, db); err != nil {
		return nil, err
	}
	res.planEvalS = time.Since(t).Seconds()

	sdb := db.Freeze()
	t = time.Now()
	sprov, err := provenance.Compute(plan, sdb)
	if err != nil {
		return nil, err
	}
	res.computeS = time.Since(t).Seconds()
	swhere, err := annotation.ComputeWhere(plan, sdb)
	if err != nil {
		return nil, err
	}

	newEngine := func() (*engine.Engine, error) {
		e := engine.New(db)
		if err := e.Prepare(in.spec.view, in.q); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		return e, nil
	}
	e, err := newEngine()
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	on := &replayer{in: in, e: e, width: e.Stats().MaintenanceWorkers, shadow: true, tr: tr, ls: &layerStats{},
		plan: plan, sdb: sdb, sprov: sprov, swhere: swhere}
	st := newStream(in)
	for i := 0; i < warmSessions; i++ {
		on.run(st.next())
	}
	on.ls, on.attempted = &layerStats{}, 0
	tr.spans = tr.spans[:0]
	cpu0 := readRuntime(rmGCCPU, rmAllCPU)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		on.run(st.next())
		res.sessions++
	}
	cpu1 := readRuntime(rmGCCPU, rmAllCPU)
	on.ls.gcCPU, on.ls.allCPU = cpu1[0]-cpu0[0], cpu1[1]-cpu0[1]
	res.ls, res.attempted, res.mismatches, res.notes = on.ls, on.attempted, on.mismatches, on.notes
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	on, tr = nil, nil

	e, err = newEngine()
	if err != nil {
		return nil, err
	}
	off := &replayer{in: in, e: e, ls: &layerStats{}}
	st = newStream(in)
	for i := 0; i < warmSessions; i++ {
		off.run(st.next())
	}
	off.ls = &layerStats{}
	for i := 0; i < res.sessions; i++ {
		off.run(st.next())
	}
	res.attempted += off.attempted
	res.mismatches += off.mismatches
	res.notes = append(res.notes, off.notes...)
	var onP50, offP50 float64
	for o := op(0); o < numOps; o++ {
		if len(res.ls.eng[o]) > 0 && len(off.ls.eng[o]) > 0 {
			onP50 += median(res.ls.eng[o])
			offP50 += median(off.ls.eng[o])
		}
	}
	if offP50 > 0 {
		res.overhead = onP50/offP50 - 1
	}
	runtime.GC()
	res.heapLiveMB = readRuntime(rmLiveHeap)[0] / (1 << 20)
	runtime.KeepAlive(e)
	return res, nil
}
