package ldl

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWorkflowStepNamesParse guards the CI workflows against the YAML
// error that kept them from running: a plain (unquoted) scalar may not
// contain ": ", so a step name such as `Storage tier: segments` makes
// the whole file unparseable ("mapping values are not allowed here")
// and no job runs at all.
func TestWorkflowStepNamesParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.y*ml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no workflow files")
	}
	nameLine := regexp.MustCompile(`^\s*(?:-\s+)?name:\s+(.*)$`)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := nameLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			v := strings.TrimSpace(m[1])
			if strings.HasPrefix(v, `"`) || strings.HasPrefix(v, "'") {
				continue
			}
			if j := strings.Index(v, " #"); j >= 0 {
				v = v[:j] // trailing comment
			}
			if strings.Contains(v, ": ") || strings.HasSuffix(v, ":") {
				t.Errorf("%s:%d: unquoted name %q contains \": \"; quote it", f, i+1, v)
			}
		}
	}
}

// TestWorkflowRunPatternsMatch guards the CI workflow's test filters:
// `go test -run` passes silently when a pattern matches no test, so a
// renamed or moved test would drop out of its CI step unnoticed. Every
// alternative of every -run '<a|b|…>' must name at least one Test* or
// Fuzz* func in the package dirs that command lists.
func TestWorkflowRunPatternsMatch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[= ]'([^']*)'`)
	pkgArg := regexp.MustCompile(`^\.(/[\w./-]*)?$`)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	funcsIn := map[string][]string{}
	funcs := func(dir string) []string {
		if fs, ok := funcsIn[dir]; ok {
			return fs
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var fs []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				fs = append(fs, m[1])
			}
		}
		funcsIn[dir] = fs
		return fs
	}
	checked := 0
	for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		var dirs []string
		for _, f := range strings.Fields(line) {
			if pkgArg.MatchString(f) {
				dirs = append(dirs, f)
			}
		}
		if len(dirs) == 0 {
			t.Errorf("ci.yml: %q lists no package dir", strings.TrimSpace(line))
			continue
		}
		for _, alt := range strings.Split(m[1], "|") {
			alt, _, _ = strings.Cut(alt, "/") // top-level test part
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, d := range dirs {
				for _, fn := range funcs(d) {
					if re.MatchString(fn) {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("ci.yml: -run alternative %q matches no Test/Fuzz func in %v", alt, dirs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("ci.yml: found no -run patterns to check")
	}
}
