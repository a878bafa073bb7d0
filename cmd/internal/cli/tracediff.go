package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/analyze"
)

// TraceDiff is the tracediff mode: it compares two attribution JSON
// artifacts (written with -attrib) phase by phase, prints the delta
// table, and with -o also writes the diff as JSON. Missing -a or -b
// prints usage and exits 2.
func TraceDiff(prog string, args []string) error {
	fs := flag.NewFlagSet("tracediff", flag.ExitOnError)
	aPath := fs.String("a", "", "baseline attribution JSON (written with -attrib)")
	bPath := fs.String("b", "", "comparison attribution JSON (written with -attrib)")
	outPath := fs.String("o", "", "also write the machine-readable diff as JSON to this file")
	labelA := fs.String("label-a", "", "label for run A (default: the -a path)")
	labelB := fs.String("label-b", "", "label for run B (default: the -b path)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s tracediff -a A.json -b B.json [-o out.json] [-label-a NAME] [-label-b NAME]\n", prog)
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError exits on a parse error
	if *aPath == "" || *bPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	if *labelA == "" {
		*labelA = *aPath
	}
	if *labelB == "" {
		*labelB = *bPath
	}
	a, err := readReport(*aPath)
	if err != nil {
		return err
	}
	b, err := readReport(*bPath)
	if err != nil {
		return err
	}
	d := analyze.Diff(a, b, *labelA, *labelB)
	if err := create(*outPath, d.WriteJSON); err != nil {
		return err
	}
	return d.WriteText(os.Stdout)
}

func readReport(path string) (*analyze.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return analyze.ReadReport(f)
}
