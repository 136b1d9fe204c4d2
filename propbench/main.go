// Command propbench is the repository's benchmark: it measures propviewd
// end to end on two workloads built from the paper's schemas, and
// replays the same operation stream in process to attribute the time to
// the engine's layers. See README.md for the metrics and the protocol.
//
//	propbench --workload ugf-point-delete --seed 1 --seconds 55 --trace 0 \
//	    -propviewd .bench_build/propviewd -workdir .bench_build
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics of the HTTP run; --trace 1 reports the per-layer
// metrics and writes the span file into the work directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// warmSessions is how many sessions run serially, untimed, before a
// measured phase.
const warmSessions = 6

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	propviewd string
	workdir   string
	toy       bool // toy database sizes, for the smoke test
}

// metric is one reported value with its unit.
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
	var opt options
	fs := flag.NewFlagSet("propbench", flag.ExitOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for the database and the operation stream")
	fs.IntVar(&opt.seconds, "seconds", 20, "measured seconds of the HTTP run (closed loop 1/6, open loop the rest)")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	fs.StringVar(&opt.propviewd, "propviewd", "", "path to the propviewd binary")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for the generated database, logs and spans")
	fs.Parse(os.Args[1:])
	if err := validate(opt); err != nil {
		fmt.Fprintln(os.Stderr, "propbench:", err)
		os.Exit(2)
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = nil
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	}
	combined := &result{Correct: true, Metrics: map[string]metric{}}
	var last *result
	for _, name := range names {
		o := opt
		o.workload = name
		res, err := runWorkload(o, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "propbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		last = res
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			combined.Metrics[name+"/"+k] = v
		}
	}
	if len(names) > 1 {
		last = combined
	}
	out, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "propbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func validate(opt options) error {
	if opt.workload != "all" {
		if _, err := specByName(opt.workload); err != nil {
			return err
		}
	}
	if opt.seconds < 1 || opt.seconds > 60 {
		return fmt.Errorf("--seconds must be in [1, 60], got %d", opt.seconds)
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", opt.trace)
	}
	if opt.propviewd == "" {
		return fmt.Errorf("-propviewd is required")
	}
	if _, err := os.Stat(opt.propviewd); err != nil {
		return fmt.Errorf("propviewd binary: %w", err)
	}
	return os.MkdirAll(opt.workdir, 0o755)
}

// runWorkload runs one workload and returns its result. It prints a
// readable table (with sample counts) to w.
func runWorkload(opt options, w *os.File) (*result, error) {
	sp, err := specByName(opt.workload)
	if err != nil {
		return nil, err
	}
	in, err := generate(sp, opt.seed, opt.toy)
	if err != nil {
		return nil, err
	}
	h, err := httpRun(opt, in)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: h.oracleErr == nil, Attempted: h.attempted, Failed: h.failed}
	if h.oracleErr != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "propbench: oracle:", h.oracleErr)
	}
	for _, f := range h.failures {
		fmt.Fprintln(os.Stderr, "propbench: failure:", f)
	}
	if opt.trace == 0 {
		res.Metrics = endToEnd(h)
	} else {
		spans := filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, opt.seed))
		tr, err := tracedRun(in, time.Duration(opt.seconds)*time.Second/2, spans)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.mismatches
		for _, m := range tr.notes {
			fmt.Fprintln(os.Stderr, "propbench: traced mismatch:", m)
		}
		res.Correct = res.Correct && tr.mismatches == 0
		res.Metrics = perLayer(h, tr, res)
		fmt.Fprintf(w, "spans: %s (%d sessions)\n", spans, tr.sessions)
	}
	res.Correct = res.Correct && res.Failed == 0
	printTable(w, sp.name, h, res)
	return res, nil
}

// gatedTail reports whether an op's tail is an end-to-end metric. The
// insert and query tails are per-layer only (loadgen.<op>_tail_ms): on
// ugf-point-delete inserts are bimodal (a restore either finds the commit
// lock free or waits behind a solve, a few percent of the time), and on
// curation-read page latency climbs steeply past its median (cache hits,
// cold sorts, pages overlapping a where-index rebuild) with shares that
// shift with host load. Every supported tail percentile of either swung
// by about 2x between runs, so no bound could gate it.
func gatedTail(o op) bool { return o == opDelete || o == opAnnotate }

func tail(h *httpResult, o op) float64 {
	return orZero(percentile(h.open.lat[o], tailPercentile(h.open.support[o])))
}

// endToEnd is the untraced HTTP run's user-visible metrics.
func endToEnd(h *httpResult) map[string]metric {
	m := map[string]metric{
		"setup_s":        {median(h.setup), "s"},
		"capacity_ops_s": {h.capacity, "1/s"},
		"peak_rss_mb":    {h.rss, "MB"},
	}
	for o := op(0); o < numOps; o++ {
		lat := h.open.lat[o]
		m[o.String()+"_p50_ms"] = metric{orZero(median(lat)), "ms"}
		if gatedTail(o) {
			m[o.String()+"_tail_ms"] = metric{tail(h, o), "ms"}
		}
	}
	return m
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func frac(a, b int) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// perLayer is the traced run's per-layer metrics, plus the ones only the
// HTTP run can see (response sizes, the RTT floor, coalescing, the
// generator's own counts).
func perLayer(h *httpResult, t *traceResult, res *result) map[string]metric {
	ls := t.ls
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{orZero(v), unit} }
	for o := op(0); o < numOps; o++ {
		n := len(h.open.lat[o])
		bytes := 0.0
		if n > 0 {
			bytes = float64(h.open.bytes[o]) / float64(n)
		}
		put("propviewd.resp_bytes."+o.String(), bytes, "bytes")
		put("propviewd.outside_engine_ms."+o.String(), median(h.open.lat[o])-median(ls.eng[o]), "ms")
		put("engine."+o.String()+"_ms.p50", median(ls.eng[o]), "ms")
		put("engine.self_ms."+o.String(), median(ls.self[o]), "ms")
		put("runtime.allocs_per_op."+o.String(), median(ls.allocs[o]), "count")
		put("loadgen."+o.String()+"_n", float64(n), "count")
	}
	put("propviewd.rtt_floor_ms", h.rttFloor, "ms")
	put("engine.coalesce_factor", h.coalesce, "ratio")
	put("engine.sort_cache_hit_frac", frac(ls.sortHit, ls.sortMiss), "ratio")
	put("engine.where_cache_hit_frac", frac(ls.whereHit, ls.whereMiss), "ratio")
	put("deletion.solve_ms.p50", median(ls.solve), "ms")
	put("deletion.solve_ms.p95", percentile(ls.solve, 95), "ms")
	put("deletion.candidates_per_solve", mean(ls.candidates), "count")
	put("deletion.view_tuples_scanned_per_solve", mean(ls.scanned), "count")
	put("deletion.yield", mean(ls.yield), "ratio")
	put("deletion.deleted_per_solve", mean(ls.deleted), "count")
	put("deletion.side_effects_per_solve", mean(ls.sideEff), "count")
	put("provenance.apply_delete_ms.p50", median(ls.applyDel), "ms")
	put("provenance.apply_insert_ms.p50", median(ls.applyIns), "ms")
	writes := float64(ls.writes)
	if writes == 0 {
		writes = math.NaN()
	}
	put("provenance.touched_per_write", float64(ls.touched)/writes, "count")
	put("provenance.rewritten_nodes_per_write", float64(ls.rewritten)/writes, "count")
	put("provenance.intern_hit_frac", frac(int(ls.internHit), int(ls.internMiss)), "ratio")
	put("provenance.map_overlay_depth", float64(ls.mapDepth), "count")
	put("provenance.compute_s", t.computeS, "s")
	put("annotation.place_ms.p50", median(ls.place), "ms")
	put("annotation.view_tuples_scanned_per_place", mean(ls.placeScan), "count")
	put("annotation.compute_where_ms.p50", median(ls.computeWhere), "ms")
	put("annotation.rebuilds_per_1k_ops", 1000*float64(ls.whereMiss)/float64(max(ls.ops, 1)), "count")
	put("annotation.apply_delete_ms.p50", median(ls.whereDel), "ms")
	put("relation.delete_all_us.p50", median(ls.delAll), "us")
	put("relation.insert_all_us.p50", median(ls.insAll), "us")
	put("relation.compactions_per_1k_writes", 1000*float64(ls.compactions)/writes, "count")
	put("relation.overlay_depth", float64(ls.relDepth), "count")
	put("relation.sort_ms.p50", median(ls.sortMs), "ms")
	put("relation.parse_s", t.parseS, "s")
	put("algebra.plan_eval_s", t.planEvalS, "s")
	gcFrac := 0.0
	if ls.allCPU > 0 {
		gcFrac = ls.gcCPU / ls.allCPU
	}
	put("runtime.gc_cpu_frac", gcFrac, "ratio")
	put("runtime.heap_live_mb", t.heapLiveMB, "MB")
	for o := op(0); o < numOps; o++ {
		if !gatedTail(o) {
			put("loadgen."+o.String()+"_tail_ms", tail(h, o), "ms")
		}
	}
	put("loadgen.lateness_p99_ms", h.open.late.p99(), "ms")
	put("loadgen.conflicts", float64(h.conflicts), "count")
	put("loadgen.failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	put("loadgen.invalid_phases", float64(h.invalid), "count")
	put("trace.overhead_frac", t.overhead, "ratio")
	put("trace.sessions", float64(t.sessions), "count")
	return m
}

// printTable writes the readable report: every metric with its unit, and
// for the HTTP run the per-op sample counts and the support of each tail
// percentile, the generator's lateness, conflicts and failures.
func printTable(w *os.File, name string, h *httpResult, res *result) {
	fmt.Fprintf(w, "== %s\n", name)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	var counts []string
	for o := op(0); o < numOps; o++ {
		lat := h.open.lat[o]
		tail := tailPercentile(h.open.support[o])
		counts = append(counts, fmt.Sprintf("%s_n=%d (tail p%.1f, %d beyond) p50/75/90/95/99 %.1f/%.1f/%.1f/%.1f/%.1f ms",
			o, len(lat), tail, beyond(lat, tail), percentile(lat, 50), percentile(lat, 75), percentile(lat, 90),
			percentile(lat, 95), percentile(lat, 99)))
	}
	fmt.Fprintf(w, "  open loop:\n    %s\n", strings.Join(counts, "\n    "))
	fmt.Fprintf(w, "  generator lateness p99 %.3f ms, invalid phases %d, conflicts %d, failed %d of %d (failed_frac %.4f)\n",
		h.open.late.p99(), h.invalid, h.conflicts, res.Failed, res.Attempted,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
}
