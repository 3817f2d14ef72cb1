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
			if ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
				got = append(got, fn.Name.Name)
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("exported With* options:\n got %v\nwant %v", got, want)
	}
}
