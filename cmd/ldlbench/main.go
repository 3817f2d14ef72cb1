// Command ldlbench regenerates the paper's experiment tables (see
// DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	ldlbench            # run every experiment
//	ldlbench -e 1       # run experiment E1 only (also: -e A1 ablations)
//	ldlbench -list      # list experiments
//
// Load generation against a running ldlserver lives in bench/ (bash
// bench/run.sh --workload <name>).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"ldl/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldlbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// flags declares the command line: -e and -list.
func flags() (fs *flag.FlagSet, exp *string, list *bool) {
	fs = flag.NewFlagSet("ldlbench", flag.ContinueOnError)
	exp = fs.String("e", "", "experiment id (1..10, A1..A3); empty runs all")
	list = fs.Bool("list", false, "list experiment ids and titles")
	return fs, exp, list
}

func run(args []string, stdout io.Writer) error {
	fs, exp, list := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, t := range experiments.Index() {
			fmt.Fprintf(stdout, "%-4s %s\n", t.ID, t.Title)
		}
		return nil
	}
	if *exp != "" {
		runExp, ok := experiments.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		fmt.Fprintln(stdout, runExp().String())
		return nil
	}
	for _, t := range experiments.All() {
		fmt.Fprintln(stdout, t.String())
	}
	return nil
}
