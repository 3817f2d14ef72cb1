package main

// The smoke test runs every workload end to end for a fraction of a
// second on one connection, and the traced replay for 50 requests. It
// asserts what must hold on any machine — no failed operation, the cache
// behaviour each workload was built for, the names BENCHMARK.json
// promises, seed determinism, no child left behind — and nothing about
// wall-clock time.

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"
)

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d names %v, BENCHMARK.json has %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: name %d is %q, BENCHMARK.json has %q", what, i, got[i], want[i])
		}
	}
}

func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayers []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, metrics.go %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name)
		if got := perLayer[i]; got != (metricSpec{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer metric %d: metrics.go has %v, BENCHMARK.json %v", i, got, m)
		}
	}
	var gotWorkloads []string
	for _, def := range workloads {
		gotWorkloads = append(gotWorkloads, def.name)
	}
	sort.Strings(gotWorkloads)
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)

	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()

	const traced = 50
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			o := runOpts{seed: 7, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
				sessions: 1, setups: 1, trace: true, traceCount: traced}
			res, err := runWorkload(e, def, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("attempted=%d failed=%d; first failure: %s", res.attempted, res.failed, res.firstFailure)
			}
			sameNames(t, "end-to-end metrics", sortedKeys(e2eMetrics(res)), wantE2E)
			if kept, _ := filepath.Glob(filepath.Join(e.outDir, def.name+"-*.stderr")); len(kept) == 0 {
				t.Error("server stderr not kept under bench/out")
			}

			layers, ok, err := traceWorkload(e, def, o, res)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("traced replay got a wrong answer")
			}
			sameNames(t, "per-layer metrics", sortedKeys(layers), wantLayers)
			value := func(name string) float64 { return layers[name].Value }
			switch def.name {
			case "point_hot", "sg_fixpoint":
				// One query form, cached during warm-up: the optimizer and
				// the kernel compiler never run again.
				if v := value("optimize.calls"); v != 0 {
					t.Errorf("optimize.calls = %v after warm-up, want 0", v)
				}
				if v := value("eval.kernel_compiles"); v != 0 {
					t.Errorf("eval.kernel_compiles = %v after warm-up, want 0", v)
				}
				if v := value("service.cache_hit_ratio"); v != 1 {
					t.Errorf("service.cache_hit_ratio = %v, want 1", v)
				}
			case "cold_forms":
				// 384 forms through a 128-plan LRU: every request misses.
				if v := value("service.cache_hit_ratio"); v != 0 {
					t.Errorf("service.cache_hit_ratio = %v, want 0 (a miss on every request)", v)
				}
				if v := value("optimize.calls"); v != traced {
					t.Errorf("optimize.calls = %v, want %d", v, traced)
				}
			case "mixed_views":
				if v := value("ivm.view_answer_ratio"); v != 1 {
					t.Errorf("ivm.view_answer_ratio = %v, want 1", v)
				}
				if v := value("ivm.scratch_fallbacks"); v != 0 {
					t.Errorf("ivm.scratch_fallbacks = %v, want 0", v)
				}
			case "load_durable":
				if res.extras["client.recovery_s"].Value <= 0 {
					t.Error("durability restart check did not run")
				}
			}
		})
	}

	// Nothing the harness started may outlive cleanup.
	e.mu.Lock()
	nodes := append([]*node(nil), e.nodes...)
	e.mu.Unlock()
	e.cleanup()
	for _, n := range nodes {
		if err := syscall.Kill(n.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) && !errors.Is(err, syscall.EPERM) {
			t.Errorf("child %d still running after cleanup (kill -0: %v)", n.cmd.Process.Pid, err)
		}
	}
	if _, err := os.Stat(e.tmpDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp dir %s survived cleanup (stat: %v)", e.tmpDir, err)
	}
}

// requestLines pulls n requests from session 0 of 1, acknowledging each
// with the answer it expects.
func requestLines(t *testing.T, def *workloadDef, seed int64, n int) []string {
	t.Helper()
	in, err := def.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	s := in.newSession(0, 1)
	lines := make([]string, n)
	for i := range lines {
		q := s.next()
		lines[i] = q.line
		s.done(q, reply{ok: true, n: q.wantN, hash: q.wantHash, epoch: uint64(i + 1)})
	}
	return lines
}

func TestRequestSequencesFollowTheSeed(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			a, b, c := requestLines(t, def, 11, 300), requestLines(t, def, 11, 300), requestLines(t, def, 12, 300)
			differs := false
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed, request %d differs:\n%s\n%s", i, a[i], b[i])
				}
				differs = differs || a[i] != c[i]
			}
			if !differs {
				t.Fatal("seeds 11 and 12 produced the same 300 requests")
			}
		})
	}
}
