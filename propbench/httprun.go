package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/relation"
)

// connections is the load generator's connection budget: one per core of
// the 2-core reference machine.
const connections = 2

// maxInvalidPhases is how many open-loop phases may be discarded for
// generator lateness before the run fails without a result.
const maxInvalidPhases = 2

// setupRuns is how many times a run starts propviewd to time set-up; the
// median is reported and the last instance serves the load.
const setupRuns = 5

// server is one propviewd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed when the process has been waited for
	err    error         // Wait's result, valid after exited closes
}

// startServer execs propviewd on the database file with the workload's
// view and default engine options, and returns once /stats answers — by
// then every -prepare view is built, since propviewd prepares before it
// listens. The returned duration is the set-up time.
func startServer(bin, dbPath string, sp *spec, logw io.Writer) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("reserving a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-db", dbPath, "-addr", addr, "-prepare", sp.view+"="+sp.query)
	cmd.Stdout = logw
	cmd.Stderr = logw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting propviewd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(2 * time.Minute)
	for {
		resp, err := probe.Get(s.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("propviewd exited during set-up: %v", s.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("propviewd did not answer /stats within 2m")
		}
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the server's high-water resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client is a JSON HTTP client limited to the connection budget.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// do sends one request and decodes a 200 body into out. It returns the
// status and the response body size.
func (c *client) do(method, path string, body, out any) (int, int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, len(raw), fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, len(raw), nil
}

// Wire types: the subset of propviewd's JSON the generator reads.
type (
	deleteReq struct {
		View      string   `json:"view"`
		Tuple     []string `json:"tuple"`
		Objective string   `json:"objective"`
	}
	srcTuple struct {
		Rel   string   `json:"rel"`
		Tuple []string `json:"tuple"`
	}
	deleteResp struct {
		Algorithm   string     `json:"algorithm"`
		Deletions   []srcTuple `json:"deletions"`
		SideEffects [][]string `json:"side_effects"`
		ViewSize    int        `json:"view_size"`
		Generation  int64      `json:"generation"`
	}
	insertReq struct {
		Rel    string     `json:"rel"`
		Tuples [][]string `json:"tuples"`
	}
	insertResp struct {
		Inserted []srcTuple `json:"inserted"`
		Views    []struct {
			Generation int64 `json:"generation"`
		} `json:"views"`
	}
	queryResp struct {
		Tuples     [][]string `json:"tuples"`
		Total      int        `json:"total"`
		Offset     int        `json:"offset"`
		Generation int64      `json:"generation"`
	}
	annotateReq struct {
		View  string   `json:"view"`
		Tuple []string `json:"tuple"`
		Attr  string   `json:"attr"`
	}
	annotateResp struct {
		Source struct {
			Rel   string   `json:"rel"`
			Tuple []string `json:"tuple"`
			Attr  string   `json:"attr"`
		} `json:"source"`
	}
	statsResp struct {
		SourceSize    int   `json:"source_size"`
		Deletes       int64 `json:"deletes"`
		Inserts       int64 `json:"inserts"`
		CommitBatches int64 `json:"commit_batches"`
	}
)

func render(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// rowKey identifies a rendered row; srcKey a rendered source tuple.
func rowKey(vals []string) string { return strings.Join(vals, "\x00") }

func srcKey(st srcTuple) string { return st.Rel + "\x01" + rowKey(st.Tuple) }

// phase accumulates one measured phase's request outcomes.
type phase struct {
	lat   [numOps][]float64 // ms from due time, successful requests only
	bytes [numOps]int64     // response body bytes, successful requests
	late  lateness
	// support counts the requests of each op the phase's sessions schedule.
	support [numOps]int
	end     time.Time // closed loop: completions after end do not count
	okBy    int       // successful requests completed by end
}

// delRec is an acknowledged delete: the view tuples it removed and the
// window in which they were absent (send until its restore completed).
type delRec struct {
	start, end time.Time
	effects    map[string]bool
}

// missRec is a 404 awaiting classification as a conflict or a failure.
type missRec struct {
	op         op
	start, end time.Time
	key        string // the view tuple the request named
}

// loadgen drives one propviewd instance with a workload's session stream
// and keeps the model of the source the final oracle checks against.
type loadgen struct {
	in *instance
	c  *client

	mu        sync.Mutex
	st        *stream
	ph        *phase
	model     map[string]int // source tuple key -> copies (0 or 1 when quiescent)
	modelRows map[string]srcTuple
	seenGen   map[string]bool // commit generations already applied to the model
	deletes   []delRec
	misses    []missRec
	fresh     map[int]chan bool // curation insert session id -> outcome
	attempted int
	failed    int
	conflicts int
	failures  []string
}

func newLoadgen(in *instance, c *client) *loadgen {
	g := &loadgen{in: in, c: c, st: newStream(in), model: map[string]int{}, modelRows: map[string]srcTuple{},
		seenGen: map[string]bool{}, fresh: map[int]chan bool{}}
	for _, r := range in.db.Relations() {
		for _, t := range r.Tuples() {
			st := srcTuple{Rel: r.Name(), Tuple: render(t)}
			g.model[srcKey(st)] = 1
			g.modelRows[srcKey(st)] = st
		}
	}
	return g
}

// next draws the next session. Curation inserts register their outcome
// channel here, in stream order, so the paired delete can wait on it.
func (g *loadgen) next() session {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.st.next()
	if s.kind == sessInsertFresh {
		g.fresh[s.id] = make(chan bool, 1)
	}
	return s
}

func (g *loadgen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failed++
	if len(g.failures) < 10 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// account counts one request's outcome. It reports whether the request
// succeeded; a 404 is left to the caller, which files it as a miss or a
// failure, and every other non-200 or transport error is a failure.
func (g *loadgen) account(o op, status int, err error) bool {
	now := time.Now()
	ok := err == nil && status == http.StatusOK
	g.mu.Lock()
	g.attempted++
	if ok && (g.ph.end.IsZero() || !now.After(g.ph.end)) {
		g.ph.okBy++
	}
	g.mu.Unlock()
	if !ok && !(err == nil && status == http.StatusNotFound) {
		g.fail("%s: status %d err %v", o, status, err)
	}
	return ok
}

// sample records one successful latency, timed from due, and its
// response size.
func (g *loadgen) sample(o op, due time.Time, size int) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ph.lat[o] = append(g.ph.lat[o], ms(now.Sub(due)))
	g.ph.bytes[o] += int64(size)
}

// record accounts one request and, if it succeeded, samples its latency.
func (g *loadgen) record(o op, due time.Time, status, size int, err error) bool {
	ok := g.account(o, status, err)
	if ok {
		g.sample(o, due, size)
	}
	return ok
}

func (g *loadgen) miss(o op, start time.Time, key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.misses = append(g.misses, missRec{op: o, start: start, end: time.Now(), key: key})
}

// applyModel folds one commit's source changes into the model. Coalesced
// requests share a report, so a commit is applied once per generation.
func (g *loadgen) applyModel(tag string, gen int64, rows []srcTuple, sign int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := tag + strconv.FormatInt(gen, 10)
	if g.seenGen[k] {
		return
	}
	g.seenGen[k] = true
	for _, st := range rows {
		g.model[srcKey(st)] += sign
		g.modelRows[srcKey(st)] = st
	}
}

func objective(o core.Objective) string {
	if o == core.MinimizeViewSideEffects {
		return "view"
	}
	return "source"
}

// run executes one session; due is when its first request was scheduled.
func (g *loadgen) run(s session, due time.Time) {
	switch s.kind {
	case sessWrite:
		g.write(s, due)
	case sessRead:
		g.query(s, due)
		g.annotate(s, time.Now())
	case sessQuery:
		g.query(s, due)
	case sessAnnotate:
		g.annotate(s, due)
	case sessInsertFresh:
		g.insertFresh(s, due)
	case sessDeleteFresh:
		g.deleteFresh(s, due)
	}
}

// write deletes the session's targets, then restores exactly the
// reported deletions with one insert per source relation.
func (g *loadgen) write(s session, due time.Time) {
	req := deleteReq{View: g.in.spec.view, Tuple: render(s.target), Objective: objective(s.obj)}
	key := rowKey(req.Tuple)
	start := time.Now()
	var resp deleteResp
	status, size, err := g.c.do("POST", "/delete", req, &resp)
	if !g.record(opDelete, due, status, size, err) {
		if err == nil && status == http.StatusNotFound {
			g.miss(opDelete, start, key)
		}
		return
	}
	if len(resp.Deletions) == 0 {
		g.fail("delete of %v reported no deletions", s.target)
		return
	}
	effects := make(map[string]bool, 1+len(resp.SideEffects))
	effects[key] = true
	for _, se := range resp.SideEffects {
		effects[rowKey(se)] = true
	}
	g.applyModel("d", resp.Generation, resp.Deletions, -1)
	g.restore(resp.Deletions)
	g.mu.Lock()
	g.deletes = append(g.deletes, delRec{start: start, end: time.Now(), effects: effects})
	g.mu.Unlock()
}

// restore re-inserts deleted source tuples, one request per relation
// (an /insert names one relation). The restore is one insert sample, timed
// from the first send to the last response, so a restore spanning both
// relations does not count as two requests of different sizes.
func (g *loadgen) restore(dels []srcTuple) {
	byRel := map[string][][]string{}
	for _, st := range dels {
		byRel[st.Rel] = append(byRel[st.Rel], st.Tuple)
	}
	rels := make([]string, 0, len(byRel))
	for r := range byRel {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	start, bytes, ok := time.Now(), 0, true
	for _, rel := range rels {
		var resp insertResp
		status, size, err := g.c.do("POST", "/insert", insertReq{Rel: rel, Tuples: byRel[rel]}, &resp)
		if !g.account(opInsert, status, err) {
			if status == http.StatusNotFound {
				g.fail("restore insert into %s: 404", rel)
			}
			ok = false
			continue
		}
		bytes += size
		g.applyInsert(resp)
	}
	if ok {
		g.sample(opInsert, start, bytes)
	}
}

func (g *loadgen) applyInsert(resp insertResp) {
	if len(resp.Inserted) == 0 || len(resp.Views) == 0 {
		return
	}
	g.applyModel("i", resp.Views[0].Generation, resp.Inserted, +1)
}

func (g *loadgen) query(s session, due time.Time) {
	path := "/query?view=" + url.QueryEscape(g.in.spec.view) + "&offset=" + strconv.Itoa(s.offset) +
		"&limit=" + strconv.Itoa(pageSize)
	var resp queryResp
	status, size, err := g.c.do("GET", path, nil, &resp)
	if !g.record(opQuery, due, status, size, err) {
		if status == http.StatusNotFound {
			g.fail("query: 404")
		}
		return
	}
	want := resp.Total - resp.Offset
	if want > pageSize {
		want = pageSize
	}
	if want < 0 {
		want = 0
	}
	if resp.Total == 0 || len(resp.Tuples) != want {
		g.fail("query offset %d: %d rows of total %d", s.offset, len(resp.Tuples), resp.Total)
	}
}

// annotate places an annotation and checks the where-provenance answer:
// the chosen source cell must hold the annotated view cell's value.
func (g *loadgen) annotate(s session, due time.Time) {
	start := time.Now()
	var resp annotateResp
	status, size, err := g.c.do("POST", "/annotate", annotateReq{View: g.in.spec.view, Tuple: render(s.cell), Attr: s.attr}, &resp)
	if !g.record(opAnnotate, due, status, size, err) {
		if err == nil && status == http.StatusNotFound {
			g.miss(opAnnotate, start, rowKey(render(s.cell)))
		}
		return
	}
	rel := g.in.db.Relation(resp.Source.Rel)
	if rel == nil {
		g.fail("annotate: placement in unknown relation %q", resp.Source.Rel)
		return
	}
	si, ok1 := rel.Schema().Index(resp.Source.Attr)
	vi, ok2 := relation.NewSchema(g.in.attrs...).Index(s.attr)
	if !ok1 || !ok2 || si >= len(resp.Source.Tuple) || resp.Source.Tuple[si] != s.cell[vi].String() {
		g.fail("annotate %v.%s: placement %s%v.%s does not carry the cell's value", s.cell, s.attr,
			resp.Source.Rel, resp.Source.Tuple, resp.Source.Attr)
	}
}

func (g *loadgen) insertFresh(s session, due time.Time) {
	g.mu.Lock()
	done := g.fresh[s.id]
	g.mu.Unlock()
	st := srcTuple{Rel: s.fresh.Rel, Tuple: render(s.fresh.Tuple)}
	var resp insertResp
	status, size, err := g.c.do("POST", "/insert", insertReq{Rel: st.Rel, Tuples: [][]string{st.Tuple}}, &resp)
	ok := g.record(opInsert, due, status, size, err)
	if ok {
		found := false
		for _, ins := range resp.Inserted {
			found = found || srcKey(ins) == srcKey(st)
		}
		if !found {
			g.fail("insert of fresh protein %v not reported as inserted", st.Tuple)
			ok = false
		}
		g.applyInsert(resp)
	} else if status == http.StatusNotFound {
		g.fail("insert of fresh protein: 404")
	}
	done <- ok
}

// deleteFresh deletes the view tuple of a protein inserted earlier with
// the view objective, which must remove exactly that Protein row.
func (g *loadgen) deleteFresh(s session, due time.Time) {
	g.mu.Lock()
	done := g.fresh[s.pair]
	delete(g.fresh, s.pair)
	g.mu.Unlock()
	if done != nil && !<-done {
		return // the insert failed and was counted; nothing to delete
	}
	want := srcTuple{Rel: s.fresh.Rel, Tuple: render(s.fresh.Tuple)}
	key := rowKey(render(s.freshView))
	start := time.Now()
	var resp deleteResp
	status, size, err := g.c.do("POST", "/delete", deleteReq{View: g.in.spec.view, Tuple: render(s.freshView), Objective: "view"}, &resp)
	if !g.record(opDelete, due, status, size, err) {
		if status == http.StatusNotFound {
			g.fail("delete of fresh view tuple %v: 404", s.freshView)
		}
		return
	}
	coalesced := strings.Contains(resp.Algorithm, "coalesced")
	found := false
	for _, d := range resp.Deletions {
		if srcKey(d) == srcKey(want) {
			found = true
		} else if !coalesced || d.Rel != "Protein" || !strings.HasPrefix(d.Tuple[1], "N") {
			g.fail("view delete of %v removed %s%v besides the inserted protein", s.freshView, d.Rel, d.Tuple)
		}
	}
	if !found || (!coalesced && (len(resp.Deletions) != 1 || len(resp.SideEffects) != 0)) {
		g.fail("view delete of %v: deletions %v side effects %d, want exactly the inserted protein",
			s.freshView, resp.Deletions, len(resp.SideEffects))
	}
	g.applyModel("d", resp.Generation, resp.Deletions, -1)
	g.mu.Lock()
	g.deletes = append(g.deletes, delRec{start: start, end: time.Now(), effects: map[string]bool{key: true}})
	g.mu.Unlock()
}

// job is one dispatched open-loop session.
type job struct {
	s   session
	due time.Time
}

// openLoop offers the workload's fixed session rate for d. A dispatcher
// sends each session at its due time regardless of earlier ones; the
// connection workers time every first request from that due time, so a
// stall shows as latency of the sessions queued behind it.
func (g *loadgen) openLoop(d time.Duration) *phase {
	ph := &phase{}
	g.mu.Lock()
	g.ph = ph
	g.mu.Unlock()
	sch := newSchedule(time.Now().Add(20*time.Millisecond), g.in.spec.rate)
	n := sch.count(d)
	jobs := make(chan job, n) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				g.run(j.s, j.due)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := sch.due(i)
		time.Sleep(time.Until(due))
		s := g.next()
		ph.late.add(due, time.Now())
		for _, o := range s.ops() {
			ph.support[o]++
		}
		jobs <- job{s: s, due: due}
	}
	close(jobs)
	wg.Wait()
	return ph
}

// closedLoop runs the same session stream back to back on every
// connection for d; successful requests completed within d per second is
// the capacity.
func (g *loadgen) closedLoop(d time.Duration) float64 {
	ph := &phase{end: time.Now().Add(d)}
	g.mu.Lock()
	g.ph = ph
	g.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(ph.end) {
				g.run(g.next(), time.Now())
			}
		}()
	}
	wg.Wait()
	return float64(ph.okBy) / d.Seconds()
}

// warmUp runs the first sessions of the stream serially, so lazy set-up
// (sorted-page cache, connection, first where-index rebuild) is not timed.
func (g *loadgen) warmUp(n int) {
	g.mu.Lock()
	g.ph = &phase{}
	g.mu.Unlock()
	for i := 0; i < n; i++ {
		g.run(g.next(), time.Now())
	}
}

// classifyMisses decides each 404: a conflict if a delete acknowledged in
// an overlapping window removed that view tuple (as a target or a side
// effect), otherwise a failure.
func (g *loadgen) classifyMisses() {
	for _, m := range g.misses {
		conflict := false
		for _, d := range g.deletes {
			if d.start.Before(m.end) && d.end.After(m.start) && d.effects[m.key] {
				conflict = true
				break
			}
		}
		if conflict {
			g.conflicts++
		} else {
			g.fail("%s: 404 with no concurrent delete of its target", m.op)
		}
	}
	g.misses = nil
}

// oracle checks the quiescent server against the model: the full paged
// view must equal the view evaluated on the model source, and source_size
// must match the model's size.
func (g *loadgen) oracle() (statsResp, error) {
	var st statsResp
	db := relation.NewDatabase()
	size := 0
	for _, r := range g.in.db.Relations() {
		db.MustAdd(relation.New(r.Name(), r.Schema()))
	}
	for k, n := range g.model {
		if n != 0 && n != 1 {
			return st, fmt.Errorf("model holds %d copies of %q: deletes and restores do not balance", n, k)
		}
		if n == 1 {
			row := g.modelRows[k]
			t := make(relation.Tuple, len(row.Tuple))
			for i, s := range row.Tuple {
				t[i] = relation.ParseValue(s, true)
			}
			db.Relation(row.Rel).Insert(t)
			size++
		}
	}
	want, err := algebra.Eval(g.in.q, db)
	if err != nil {
		return st, err
	}
	wantRows := make([]string, 0, want.Len())
	for _, t := range want.Tuples() {
		wantRows = append(wantRows, rowKey(render(t)))
	}
	sort.Strings(wantRows)

	var got []string
	gen := int64(-1)
	for off := 0; ; {
		var page queryResp
		path := "/query?view=" + url.QueryEscape(g.in.spec.view) + "&limit=10000&offset=" + strconv.Itoa(off)
		status, _, err := g.c.do("GET", path, nil, &page)
		if err != nil || status != http.StatusOK {
			return st, fmt.Errorf("oracle page at %d: status %d err %v", off, status, err)
		}
		if gen >= 0 && page.Generation != gen {
			return st, fmt.Errorf("view changed while paging a quiescent server")
		}
		gen = page.Generation
		for _, t := range page.Tuples {
			got = append(got, rowKey(t))
		}
		off += len(page.Tuples)
		if len(page.Tuples) == 0 || off >= page.Total {
			break
		}
	}
	sort.Strings(got)
	if len(got) != len(wantRows) {
		return st, fmt.Errorf("served view has %d rows, model view %d", len(got), len(wantRows))
	}
	for i := range got {
		if got[i] != wantRows[i] {
			return st, fmt.Errorf("served view differs from model view at row %q vs %q", got[i], wantRows[i])
		}
	}
	status, _, err := g.c.do("GET", "/stats", nil, &st)
	if err != nil || status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d err %v", status, err)
	}
	if st.SourceSize != size {
		return st, fmt.Errorf("/stats source_size %d, model %d", st.SourceSize, size)
	}
	return st, nil
}

// httpResult is what the end-to-end run measured.
type httpResult struct {
	setup     []float64 // seconds, one per start
	open      *phase
	capacity  float64
	rttFloor  float64
	rss       float64
	coalesce  float64
	invalid   int // open-loop phases discarded for generator lateness
	attempted int
	failed    int
	conflicts int
	failures  []string
	oracleErr error
}

// httpRun is the end-to-end run: set-up timing, warm-up, the open-loop
// phase at the fixed offered rate, the closed-loop capacity phase and the
// oracle, against a propviewd child process.
func httpRun(opt options, in *instance) (*httpResult, error) {
	dbPath := filepath.Join(opt.workdir, fmt.Sprintf("db-%s-%d.txt", in.spec.name, in.seed))
	if err := os.WriteFile(dbPath, []byte(relation.WriteDatabaseString(in.db)), 0o644); err != nil {
		return nil, fmt.Errorf("writing database: %w", err)
	}
	logf, err := os.Create(filepath.Join(opt.workdir, "propviewd-"+in.spec.name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	res := &httpResult{}
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, d, err := startServer(opt.propviewd, dbPath, in.spec, logf)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d.Seconds())
		if i < setupRuns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.hc.CloseIdleConnections()

	// RTT floor: a metadata-only page on a warm snapshot.
	var rtt []float64
	for i := 0; i < 41; i++ {
		t := time.Now()
		status, _, err := c.do("GET", "/query?view="+url.QueryEscape(in.spec.view)+"&limit=0", nil, nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("rtt probe: status %d err %v", status, err)
		}
		if i > 0 {
			rtt = append(rtt, ms(time.Since(t)))
		}
	}
	res.rttFloor = median(rtt)

	g := newLoadgen(in, c)
	g.warmUp(warmSessions)
	closedDur := time.Duration(opt.seconds) * time.Second / 6
	if closedDur < 500*time.Millisecond {
		closedDur = 500 * time.Millisecond
	}
	openDur := time.Duration(opt.seconds)*time.Second - closedDur
	bound := lateBoundMs(newSchedule(time.Time{}, in.spec.rate).interval)
	for {
		res.open = g.openLoop(openDur)
		if res.open.late.valid(bound) {
			break
		}
		res.invalid++
		fmt.Fprintf(os.Stderr, "propbench: open-loop phase invalid: generator p99 lateness %.2f ms > %.1f ms\n",
			res.open.late.p99(), bound)
		if res.invalid >= maxInvalidPhases {
			return nil, fmt.Errorf("generator fell behind its schedule in %d phases; run not recorded", res.invalid)
		}
	}
	res.capacity = g.closedLoop(closedDur)

	g.classifyMisses()
	st, err := g.oracle()
	res.oracleErr = err
	if st.CommitBatches > 0 {
		res.coalesce = float64(st.Deletes+st.Inserts) / float64(st.CommitBatches)
	}
	if res.rss, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.conflicts, res.failures = g.attempted, g.failed, g.conflicts, g.failures
	return res, nil
}
