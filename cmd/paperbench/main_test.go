package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
)

// usageArtifacts returns the artifact names usageText lists, in order:
// the first word of each line indented by exactly two spaces under
// "artifacts:".
func usageArtifacts() []string {
	_, rest, _ := strings.Cut(usageText, "\nartifacts:\n")
	section, _, _ := strings.Cut(rest, "\n\n")
	var names []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "  ") && line[2] != ' ' {
			names = append(names, strings.Fields(line)[0])
		}
	}
	return names
}

// names returns the rows of the artifact table that keep, in order.
func names(keep func(artifact) bool) []string {
	var out []string
	for _, a := range artifacts {
		if keep(a) {
			out = append(out, a.name)
		}
	}
	return out
}

// TestArtifactTable checks the artifact table against the usage text
// and pins which artifacts take -chaos and the export flags.
func TestArtifactTable(t *testing.T) {
	all := names(func(artifact) bool { return true })
	if listed := usageArtifacts(); !slices.Equal(listed, all) {
		t.Errorf("usage lists %v, the table has %v", listed, all)
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Errorf("artifact %s has more than one row", n)
		}
		seen[n] = true
	}
	chaos := names(func(a artifact) bool { return a.flags&platforms != 0 })
	if want := strings.Fields("fig3 fig4 fig5 table1 ablations openloop repart attrib scale all"); !slices.Equal(chaos, want) {
		t.Errorf("-chaos eligible: %v, want %v", chaos, want)
	}
	exports := names(func(a artifact) bool { return a.tel&cli.Exports != 0 })
	if want := strings.Fields("fig4 fig5 table1 attrib all"); !slices.Equal(exports, want) {
		t.Errorf("export-honouring: %v, want %v", exports, want)
	}
}

// TestBindFollowsTable binds every row's flags and checks each flag is
// defined exactly for the artifacts that read it, so an artifact that
// exports nothing rejects the export flags.
func TestBindFollowsTable(t *testing.T) {
	for _, a := range artifacts {
		fs := flag.NewFlagSet(a.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bind(&a, fs)
		exports := a.tel&cli.Exports != 0
		for flagName, want := range map[string]bool{
			"trace":       exports || a.tel&cli.Trace != 0,
			"metrics":     exports,
			"attrib":      exports,
			"flame":       exports,
			"slo":         exports,
			"sample":      a.tel&cli.Sample != 0,
			"chaos":       a.flags&platforms != 0,
			"completions": slices.Contains([]string{"fig4", "fig5", "all"}, a.name),
			"csv":         slices.Contains([]string{"fig2", "fig4", "fig5", "all"}, a.name),
		} {
			if got := fs.Lookup(flagName) != nil; got != want {
				t.Errorf("%s: -%s bound = %v, want %v", a.name, flagName, got, want)
			}
		}
	}
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bind(&artifacts[0], fs)
	if err := fs.Parse([]string{"-trace", "t.json"}); err == nil {
		t.Error("fig1 accepted -trace")
	}
}
