package main

import (
	"flag"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"E1", "E10", "A1", "A3"} {
		if !strings.Contains(s, want) {
			t.Errorf("list missing %q:\n%s", want, s)
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-e", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== E10:") {
		t.Errorf("output = %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-e", "99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestFlagSet pins the command line to the experiment-table flags:
// load generation is bench/'s job, not a second client here.
func TestFlagSet(t *testing.T) {
	fs, _, _ := flags()
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "e list" {
		t.Errorf("flags = %q, want \"e list\"", got)
	}
}
