// Command bench is the repo benchmark: a client's-eye harness over the
// real ldlserver. For each workload it generates the inputs from the
// seed, starts the server as a child process with the workload's flags,
// drives it over TCP, checks every answer, prints every metric by name
// with its unit, and tears everything down. See README.md.
//
//	bash bench/run.sh --seed 1                        every workload, end to end
//	bash bench/run.sh --workload point_hot --seed 1   one workload
//	bash bench/run.sh --seed 1 --trace 1              the traced run: per-layer metrics
//	bash bench/run.sh --compare a.json b.json         two sets of runs against the bounds
//
// The last line of standard output is one JSON object. With --workload it
// has exactly the keys correct, attempted, failed and metrics (the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1);
// without, it summarises all workloads and ends with "claim": null — the
// benchmark measures, it claims no gain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named value with its unit, as printed and as recorded.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the gated metrics, in BENCHMARK.json's order. Every
// workload reports every one of them.
var endToEnd = []string{"throughput_ops_s", "latency_p50_ms", "latency_p95_ms", "setup_s"}

// e2eMetrics names what a client of the server saw in one run.
func e2eMetrics(r *runResult) map[string]metric {
	return map[string]metric{
		"throughput_ops_s": {float64(r.all.n) / r.window.Seconds(), "ops/s"},
		"latency_p50_ms":   {r.all.p50, "ms"},
		"latency_p95_ms":   {r.all.p95, "ms"},
		"setup_s":          {r.setupS, "s"},
	}
}

// clientInfo are the informational client.* values: per-verb latencies
// with their sample counts, tails, and the open loop's lateness. They are
// printed and recorded but not gated.
func clientInfo(r *runResult) map[string]metric {
	out := map[string]metric{}
	for verb, v := range map[string]verbStats{"query": r.query, "load": r.load} {
		if v.n == 0 {
			continue // a workload reports only the verbs it sends
		}
		out["client."+verb+"_n"] = metric{float64(v.n), "count"}
		out["client."+verb+"_p50_ms"] = metric{v.p50, "ms"}
		out["client."+verb+"_p95_ms"] = metric{v.p95, "ms"}
		out["client."+verb+"_p99_ms"] = metric{v.p99, "ms"}
		out["client."+verb+"_max_ms"] = metric{v.max, "ms"}
	}
	// Peak resident memory of the server process(es). Not gated: on heaps
	// this small the peak follows GC timing, and across ten runs it
	// spread by 17% (sg_fixpoint) and 28% (cold_forms) of its median.
	out["client.rss_mb"] = metric{r.rssMB, "MB"}
	out["client.latency_n"] = metric{float64(r.all.n), "count"}
	out["client.latency_p99_ms"] = metric{r.all.p99, "ms"}
	out["client.latency_max_ms"] = metric{r.all.max, "ms"}
	out["client.late_share"] = metric{r.late, "ratio"}
	for k, v := range r.extras {
		out[k] = v
	}
	return out
}

// runRecord is one run as written to a results file.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Client    map[string]metric `json:"client,omitempty"`
}

// machine describes where and how a set of runs was made.
type machine struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitSHA       string  `json:"git_sha"`
	WarmupS      float64 `json:"warmup_s"`
	WindowS      float64 `json:"window_s"`
	SetupRepeat  int     `json:"setup_repeat"`
	OpenLoopRate float64 `json:"mixed_views_rate_per_s"`
}

// resultsFile is a set of runs: what --out appends to and --compare reads.
type resultsFile struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

func thisMachine(root string, window time.Duration) machine {
	sha := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: sha, WarmupS: warmup.Seconds(), WindowS: window.Seconds(),
		SetupRepeat: setupRepeat, OpenLoopRate: mixedViewsRate,
	}
}

// appendResults adds recs to the results file at path, creating it.
func appendResults(path string, m machine, recs []runRecord) error {
	f := resultsFile{Machine: m}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Runs = append(f.Runs, recs...)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetrics(workload string, ms map[string]metric, order []string) {
	if order == nil {
		for name := range ms {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	for _, name := range order {
		fmt.Printf("%-14s %-32s %14.4f %s\n", workload, name, ms[name].Value, ms[name].Unit)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all six)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
		out      = flag.String("out", "", "append this invocation's runs to a results file (for --compare)")
		compare  = flag.Bool("compare", false, "compare two results files: --compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two results files"))
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{*def}
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}

	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// Children and temp dirs go away on every exit path: normal return,
	// fatal error, and SIGINT/SIGTERM.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		e.cleanup()
		os.Exit(130)
	}()
	code := run(e, defs, *workload != "", runOpts{
		seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup, trace: *trace == 1,
	}, *out)
	e.cleanup()
	os.Exit(code)
}

// run executes the chosen workloads and prints the results; it returns
// the process exit code.
func run(e *env, defs []workloadDef, single bool, o runOpts, outPath string) int {
	var recs []runRecord
	mach := thisMachine(e.root, o.window)
	for i := range defs {
		def := &defs[i]
		res, err := runWorkload(e, def, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rec := runRecord{
			Workload: def.name, Seed: o.seed, Trace: o.trace,
			Correct: res.correct(), Attempted: res.attempted, Failed: res.failed,
			Client: clientInfo(res),
		}
		if o.trace {
			layers, ok, err := traceWorkload(e, def, o, res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			rec.Metrics = layers
			rec.Correct = rec.Correct && ok
			printMetrics(def.name, rec.Metrics, nil)
		} else {
			rec.Metrics = e2eMetrics(res)
			printMetrics(def.name, rec.Metrics, endToEnd)
		}
		printMetrics(def.name, rec.Client, nil)
		fmt.Printf("%-14s attempted=%d failed=%d correct=%v\n", def.name, rec.Attempted, rec.Failed, rec.Correct)
		if res.firstFailure != "" {
			fmt.Printf("%-14s first failure: %s\n", def.name, res.firstFailure)
		}
		recs = append(recs, rec)
	}
	if outPath != "" {
		if err := appendResults(outPath, mach, recs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	var last any
	if single {
		r := recs[0]
		last = map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
	} else {
		per := map[string]any{}
		allCorrect := true
		for _, r := range recs {
			per[r.Workload] = map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
			allCorrect = allCorrect && r.Correct
		}
		last = struct {
			Correct   bool           `json:"correct"`
			Machine   machine        `json:"machine"`
			Workloads map[string]any `json:"workloads"`
			Claim     any            `json:"claim"`
		}{allCorrect, mach, per, nil}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
