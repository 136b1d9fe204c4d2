package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the smoke test checks
// the emitted metrics against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
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

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json's workload list, and
// the offered rates its one-line reasons record, in step with the code.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		sp := specs[i]
		if w.Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, sp.name)
		}
		if rate := fmt.Sprintf("%g sessions/s", sp.rate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not record the offered rate %q", w.Name, w.Why, rate)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at toy size, untraced and
// traced, and checks that each metric BENCHMARK.json names is emitted with
// its unit and that every correctness check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts propviewd")
	}
	b := readBenchmarkJSON(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "propviewd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/propviewd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building propviewd: %v\n%s", err, out)
	}
	log, err := os.Create(filepath.Join(dir, "table.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, sp := range specs {
		for trace := 0; trace <= 1; trace++ {
			opt := options{workload: sp.name, seed: 1, seconds: 2, trace: trace, propviewd: bin, workdir: dir, toy: true}
			res, err := runWorkload(opt, log)
			if err != nil {
				t.Fatalf("%s trace %d: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := b.EndToEnd
			if trace == 1 {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s not emitted", sp.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s has unit %q, BENCHMARK.json %q", sp.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace == 1 {
				spans := filepath.Join(dir, fmt.Sprintf("spans-%s-1.jsonl", sp.name))
				if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file %s missing or empty (%v)", sp.name, spans, err)
				}
			}
		}
	}
}
