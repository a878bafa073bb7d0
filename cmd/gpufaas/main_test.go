package main

import (
	"strings"
	"testing"
)

// Out-of-range campaign flags are reported as errors before any
// simulation runs, instead of crashing inside the campaign.
func TestMolDesignRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-pool", "10", "-batch", "16"},
		{"-pool", "-5"},
		{"-batch", "0"},
		{"-rounds", "-1"},
	} {
		err := runMolDesign(args)
		if err == nil || !strings.Contains(err.Error(), "moldesign:") {
			t.Errorf("%v: err = %v, want a moldesign config error", args, err)
		}
	}
}
