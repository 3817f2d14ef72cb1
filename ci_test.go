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
