// Command benchdiff compares a `go test -bench` run against a committed
// baseline JSON (BENCH_PR*.json) without external dependencies — a
// small, offline stand-in for benchstat suited to CI trend tracking.
//
// Usage:
//
//	go run ./cmd/benchdiff -baseline BENCH_PR3.json bench.txt
//
// The baseline is walked recursively for objects carrying "ns_per_op"
// (and optionally "allocs_per_op"/"B_per_op"); each such object is
// keyed by its slash-joined JSON path, e.g.
// "fixpoint_kernels/FixpointKernels/tc/chain100/compiled". A benchmark
// line "BenchmarkFixpointKernels/tc/chain100/compiled-4" matches the
// baseline key that contains its name, preferring an exact suffix
// match, then a path ending in "/after" (the convention the BENCH
// files use for the post-change column). Repeated runs of the same
// benchmark (-count N) are collapsed to their median before diffing.
// Baseline keys that no benchmark line matched are listed after the
// table, so a dropped or renamed benchmark arm is visible instead of
// silently skipped.
//
// By default the diff is informational (exit 0). With -max-regress P,
// the tool exits 1 if any matched benchmark's median ns/op regressed
// by more than P percent; -max-alloc-regress P does the same for
// allocs/op (a far less noisy signal on shared runners — allocation
// counts are deterministic, so a tight gate is safe). Benchmarks on
// shared CI runners have noisy timings, so pick the ns/op threshold
// generously or leave that gate off.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type metrics struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

// collectBaseline walks decoded JSON for metric objects and keys them
// by their slash-joined path.
func collectBaseline(v any, path string, out map[string]metrics) {
	obj, ok := v.(map[string]any)
	if !ok {
		return
	}
	if ns, ok := obj["ns_per_op"].(float64); ok {
		m := metrics{ns: ns}
		if a, ok := obj["allocs_per_op"].(float64); ok {
			m.allocs = a
			m.hasMem = true
		}
		if bpo, ok := obj["B_per_op"].(float64); ok {
			m.bytes = bpo
		}
		out[path] = m
		return
	}
	for k, sub := range obj {
		p := k
		if path != "" {
			p = path + "/" + k
		}
		collectBaseline(sub, p, out)
	}
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)
var memField = regexp.MustCompile(`([\d.]+) (B/op|allocs/op)`)

// parseBench reads `go test -bench` output and collapses repeated runs
// of each benchmark to their median.
func parseBench(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]metrics{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := metrics{ns: ns}
		for _, f := range memField.FindAllStringSubmatch(m[3], -1) {
			v, _ := strconv.ParseFloat(f[1], 64)
			switch f[2] {
			case "B/op":
				r.bytes = v
			case "allocs/op":
				r.allocs = v
				r.hasMem = true
			}
		}
		runs[m[1]] = append(runs[m[1]], r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	med := map[string]metrics{}
	for name, rs := range runs {
		med[name] = median(rs)
	}
	return med, nil
}

func median(rs []metrics) metrics {
	pick := func(get func(metrics) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = get(r)
		}
		sort.Float64s(vs)
		return vs[len(vs)/2]
	}
	m := metrics{
		ns:     pick(func(r metrics) float64 { return r.ns }),
		bytes:  pick(func(r metrics) float64 { return r.bytes }),
		allocs: pick(func(r metrics) float64 { return r.allocs }),
	}
	for _, r := range rs {
		m.hasMem = m.hasMem || r.hasMem
	}
	return m
}

// match picks the baseline key for a benchmark name: exact suffix
// match first, then a key ending in "/after", then the first match in
// sorted order (deterministic).
func match(name string, base map[string]metrics) (string, bool) {
	var cands []string
	for k := range base {
		if strings.Contains(k, name) {
			cands = append(cands, k)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	sort.Strings(cands)
	for _, k := range cands {
		if k == name || strings.HasSuffix(k, "/"+name) {
			return k, true
		}
	}
	for _, k := range cands {
		if strings.HasSuffix(k, "/after") {
			return k, true
		}
	}
	return cands[0], true
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline JSON file (BENCH_PR*.json)")
	maxRegress := flag.Float64("max-regress", 0, "exit 1 if any ns/op regresses by more than this percent (0 = report only)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0, "exit 1 if any allocs/op regresses by more than this percent (0 = report only)")
	flag.Parse()
	if *baselinePath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline BENCH_PRn.json [-max-regress pct] [-max-alloc-regress pct] bench.txt")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	base := map[string]metrics{}
	collectBaseline(doc, "", base)
	cur, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-48s %14s %14s %8s %10s %10s %8s\n",
		"benchmark (vs "+*baselinePath+")", "old ns/op", "new ns/op", "Δns", "old allocs", "new allocs", "Δallocs")
	var nsRegressed, allocRegressed bool
	matched := 0
	used := map[string]bool{}
	for _, n := range names {
		key, ok := match(n, base)
		if !ok {
			continue
		}
		matched++
		used[key] = true
		b, c := base[key], cur[n]
		dns := pct(b.ns, c.ns)
		line := fmt.Sprintf("%-48s %14.0f %14.0f %+7.1f%%", n, b.ns, c.ns, dns)
		if b.hasMem && c.hasMem {
			dal := pct(b.allocs, c.allocs)
			line += fmt.Sprintf(" %10.0f %10.0f %+7.1f%%", b.allocs, c.allocs, dal)
			if *maxAllocRegress > 0 && dal > *maxAllocRegress {
				allocRegressed = true
			}
		}
		fmt.Fprintln(w, line)
		if *maxRegress > 0 && dns > *maxRegress {
			nsRegressed = true
		}
	}
	fmt.Fprintf(w, "%d/%d benchmarks matched against baseline\n", matched, len(cur))
	var unused []string
	for k := range base {
		if !used[k] {
			unused = append(unused, k)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		fmt.Fprintf(w, "%d/%d baseline keys matched no benchmark line:\n", len(unused), len(base))
		for _, k := range unused {
			fmt.Fprintf(w, "  %s\n", k)
		}
	}
	if nsRegressed || allocRegressed {
		w.Flush()
		if nsRegressed {
			fmt.Fprintf(os.Stderr, "benchdiff: ns/op regression beyond %.1f%% detected\n", *maxRegress)
		}
		if allocRegressed {
			fmt.Fprintf(os.Stderr, "benchdiff: allocs/op regression beyond %.1f%% detected\n", *maxAllocRegress)
		}
		os.Exit(1)
	}
}
