package main

// --compare a.json b.json: two sets of runs against the bounds in
// BENCHMARK.json. One row per end-to-end metric × workload: each side's
// median and spread (interquartile range as a share of the median), the
// ratio of b's median to a's, and a verdict — "within" the bound,
// "regressed" beyond it, or "unresolved" when either side's spread is
// wider than the bound, in which case the medians decide nothing.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is what the harness reads of BENCHMARK.json.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkSpec() (*benchmarkSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// medianSpread returns the median of vs and, with four or more values,
// their interquartile range as a share of the median (the quartiles are
// those of Python's statistics.quantiles(vs, n=4)).
func medianSpread(vs []float64) (med, spread float64) {
	sort.Float64s(vs)
	quantile := func(q float64) float64 {
		// Exclusive method: position q*(n+1), 1-based, linear in between.
		pos := q*float64(len(vs)+1) - 1
		if pos <= 0 {
			return vs[0]
		}
		if pos >= float64(len(vs)-1) {
			return vs[len(vs)-1]
		}
		lo := int(pos)
		return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
	}
	med = quantile(0.5)
	if len(vs) >= 4 && med != 0 {
		spread = (quantile(0.75) - quantile(0.25)) / med
	}
	return med, spread
}

func runCompare(pathA, pathB string) error {
	spec, err := readBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  %+v\n", pathA, a.Machine)
	fmt.Printf("b: %s  %+v\n", pathB, b.Machine)
	values := func(f *resultsFile, workload, name string) []float64 {
		var vs []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Printf("%-14s %-18s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "a median", "spread", "b median", "spread", "b/a", "bound", "verdict")
	regressed := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-18s no runs on one side (a: %d, b: %d)\n", w.Name, m.Name, len(va), len(vb))
				continue
			}
			medA, spreadA := medianSpread(va)
			medB, spreadB := medianSpread(vb)
			ratio := medB / medA // base: a's median
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-14s %-18s %12.4f %6.1f%% %12.4f %6.1f%% %8.4f %5.0f%%  %s\n",
				w.Name, m.Name, medA, 100*spreadA, medB, 100*spreadB, ratio, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("runs: a=%d b=%d; ratios are b's median over a's; %d regressed\n", len(a.Runs), len(b.Runs), regressed)
	return nil
}
