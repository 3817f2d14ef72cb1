package main

// Child-process plumbing: build ./cmd/ldlserver, start it in its own
// process group on a free loopback port, learn the port from its log,
// keep its stderr under bench/out/, read its peak RSS, and kill it. Every
// child and temp directory is registered with the env that started it, so
// one cleanup call — deferred by every caller and run by the signal
// handler — removes them on any exit path.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one benchmark invocation's view of the checkout.
type env struct {
	root      string // the checkout: parent of bench/
	serverBin string
	outDir    string // bench/out
	tmpDir    string // this invocation's scratch space under .bench_build/

	mu    sync.Mutex
	nodes []*node
}

// repoRoot finds the checkout from the working directory: the harness is
// run from the root (bench/run.sh) or from bench/ (go run, go test).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ldlserver", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("cannot find the ldl checkout from %s (need cmd/ldlserver and bench/)", wd)
}

// newEnv builds the server binary into .bench_build/ and prepares the
// output and temp directories. Everything it writes is inside the
// checkout.
func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:      root,
		serverBin: filepath.Join(build, "bin", "ldlserver"),
		outDir:    filepath.Join(root, "bench", "out"),
	}
	for _, dir := range []string{filepath.Dir(e.serverBin), e.outDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	cmd := exec.Command("go", "build", "-o", e.serverBin, "./cmd/ldlserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/ldlserver: %v\n%s", err, out)
	}
	if e.tmpDir, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// cleanup kills every child still running, waits for each, and removes
// the temp directory. Safe to call more than once and from the signal
// handler.
func (e *env) cleanup() {
	e.mu.Lock()
	nodes := e.nodes
	e.nodes = nil
	e.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
	os.RemoveAll(e.tmpDir)
}

// newDir makes a fresh directory under the run's temp dir.
func (e *env) newDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmpDir, prefix+"-")
}

// node is one running ldlserver.
type node struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
	once   sync.Once
}

// start launches ldlserver with the given flags and returns once it
// logs the address it serves on. label names the stderr file kept under
// bench/out/.
func (e *env) start(label, program string, flags ...string) (*node, error) {
	logf, err := os.Create(filepath.Join(e.outDir, label+".stderr"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-program", program}, flags...)
	cmd := exec.Command(e.serverBin, args...)
	// Own process group: a kill reaches anything the child starts, and a
	// terminal's ^C reaches only the harness, whose handler cleans up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	n := &node{cmd: cmd, exited: make(chan struct{})}
	e.mu.Lock()
	e.nodes = append(e.nodes, n)
	e.mu.Unlock()

	// Tee stderr into the log file; the first "serving on" line carries
	// the port.
	addrc := make(chan string, 1)
	go func() {
		defer close(n.exited)
		defer logf.Close()
		br := bufio.NewReader(stderr)
		found := false
		for {
			line, err := br.ReadString('\n')
			io.WriteString(logf, line)
			if _, after, ok := strings.Cut(line, "serving on "); ok && !found {
				found = true
				addrc <- strings.TrimSpace(after)
			}
			if err != nil {
				break
			}
		}
		cmd.Wait()
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			n.kill()
			return nil, fmt.Errorf("%s exited before serving; see %s", label, logf.Name())
		}
		n.addr = addr
		return n, nil
	case <-time.After(60 * time.Second):
		n.kill()
		return nil, fmt.Errorf("%s did not start serving within 60s; see %s", label, logf.Name())
	}
}

// kill SIGKILLs the node's process group and waits until it has exited.
func (n *node) kill() {
	n.once.Do(func() {
		if err := syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL); err != nil && !errors.Is(err, syscall.ESRCH) {
			n.cmd.Process.Kill()
		}
	})
	<-n.exited
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MB.
func (n *node) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
