package ldl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestExportedOptionSurface pins the package's exported With* option
// constructors. Each one is an axis of the configuration matrix the
// equivalence suites have to cover, so adding or removing one means
// editing this list on purpose.
func TestExportedOptionSurface(t *testing.T) {
	want := []string{
		"WithCheckpointBytes",
		"WithContext",
		"WithFlattening",
		"WithFsyncPolicy",
		"WithMaterialized",
		"WithMaxIterations",
		"WithMaxTuples",
		"WithOptimizerBudget",
		"WithSeed",
		"WithStorageDir",
		"WithStrategy",
		"WithTimeout",
	}
	got := exportedFuncs(t, func(fn *ast.FuncDecl) bool {
		return fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With")
	})
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("exported With* options:\n got %v\nwant %v", got, want)
	}
}

// TestExportedSystemMethodSurface pins the exported *System methods.
// Optimize, Prepare and Query answer a goal through the optimizer,
// EvaluateUnoptimized is the baseline it is measured against, and
// AnswersFromViews serves materialized views; a new evaluation entry
// point means editing this list on purpose.
func TestExportedSystemMethodSurface(t *testing.T) {
	want := []string{
		"AnswersFromViews",
		"ApplyReplicated",
		"Changed",
		"Checkpoint",
		"Close",
		"Durability",
		"EnableStatsFeedback",
		"Epoch",
		"EvaluateUnoptimized",
		"FencedEvents",
		"IVMStats",
		"InsertFacts",
		"Materialized",
		"ObserveTerm",
		"Optimize",
		"Prepare",
		"Promote",
		"Queries",
		"Query",
		"ReadOnly",
		"Recovery",
		"Relations",
		"SetReadOnly",
		"StorageStats",
		"Term",
		"WALAccess",
	}
	got := exportedFuncs(t, func(fn *ast.FuncDecl) bool {
		if fn.Recv == nil || len(fn.Recv.List) != 1 {
			return false
		}
		star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			return false
		}
		id, ok := star.X.(*ast.Ident)
		return ok && id.Name == "System"
	})
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("exported *System methods:\n got %v\nwant %v", got, want)
	}
}

// exportedFuncs returns the sorted names of the package's exported
// non-test function declarations that keep accepts.
func exportedFuncs(t *testing.T, keep func(*ast.FuncDecl) bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["ldl"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Name.IsExported() && keep(fn) {
				got = append(got, fn.Name.Name)
			}
		}
	}
	sort.Strings(got)
	return got
}
