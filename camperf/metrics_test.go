package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

func TestMetricNamesValid(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range allMetrics() {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "host/frac", "x\n"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

func TestEndToEndBounds(t *testing.T) {
	var setup float64
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v", d.Name, d.Bound, setup)
		}
	}
	if setup == 0 {
		t.Fatal("setup_s is not an end-to-end metric")
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json in
// step with the metrics and workloads the benchmark reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %q with a reason", i, b.Workloads[i], w.name)
		}
	}
	for _, c := range []struct {
		name      string
		json, cat []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.cat) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.name, len(c.json), len(c.cat))
			continue
		}
		for i := range c.cat {
			if c.json[i] != c.cat[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", c.name, i, c.json[i], c.cat[i])
			}
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method: Python's
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range [][2]float64{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v %v %v", q1, med, q3)
	}
}

func TestMachineDiffsFlagsOnlyMachineFields(t *testing.T) {
	a := stamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Commit: "a", Tree: "t1"}
	b := a
	b.Commit, b.Tree = "b", "t2"
	if d := machineDiffs(a, b); len(d) != 0 {
		t.Errorf("code-only change flagged as a machine change: %v", d)
	}
	b.CPU, b.NProc = "y", 4
	if d := machineDiffs(a, b); len(d) != 2 {
		t.Errorf("machineDiffs = %v, want cpu and nproc", d)
	}
}
