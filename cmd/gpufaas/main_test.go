package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs/analyze"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
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

// TestPackTenantRejectsBadDemands: each -tenant value goes through
// fleet.ParseDemands, so malformed demands fail at flag parsing, and a
// tenant repeated across flags fails both packers' duplicate check.
func TestPackTenantRejectsBadDemands(t *testing.T) {
	for _, v := range []string{"a:-5:1", "b:10:NaN", "a:0", "a:10:-1", "a", ":10:1"} {
		var tf tenantFlags
		if err := tf.Set(v); err == nil {
			t.Errorf("-tenant %s: accepted as %v", v, tf)
		}
	}
	var tf tenantFlags
	for _, v := range []string{"a:10:1", "a:10:1"} {
		if err := tf.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	spec := simgpu.A100SXM480GB()
	if _, err := rightsize.PackMPS(spec, tf); !errors.Is(err, rightsize.ErrDuplicateTenant) {
		t.Errorf("PackMPS on duplicate tenants: err = %v", err)
	}
	if _, err := rightsize.PackMIG(spec, tf); !errors.Is(err, rightsize.ErrDuplicateTenant) {
		t.Errorf("PackMIG on duplicate tenants: err = %v", err)
	}
}

// TestPackPlacesThreeTwoTwo: 42, 28 and 28 SMs cover as 3g, 2g and
// 2g, which fill the A100 only as 2g@0, 2g@2 and 3g@4. Placing the
// largest-first layout in order would put the 3g at slice 0 and find no
// room for the second 2g; pack must still print the plan.
func TestPackPlacesThreeTwoTwo(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = runPack([]string{"-tenant", "a:42", "-tenant", "b:28", "-tenant", "c:28"})
	os.Stdout = stdout
	w.Close()
	out, readErr := io.ReadAll(r)
	if err != nil || readErr != nil {
		t.Fatal(err, readErr)
	}
	if !strings.Contains(string(out), "MIG plan (layout [3g.40gb 2g.20gb 2g.20gb])") || strings.Contains(string(out), "infeasible") {
		t.Fatalf("pack output:\n%s", out)
	}
}

// TestRepartExportsOneScope: repart's trace and attribution files name
// the one scope the core run sets, phaseshift/<plan>.
func TestRepartExportsOneScope(t *testing.T) {
	dir := t.TempDir()
	tracePath, attribPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "a.json")
	if err := runRepart([]string{"-trace", tracePath, "-attrib", attribPath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var traceScopes []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			traceScopes = append(traceScopes, e.Args["name"].(string))
		}
	}
	f, err := os.Open(attribPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := analyze.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	attribScopes := map[string]bool{}
	for _, ta := range rep.Tasks {
		attribScopes[ta.Scope] = true
	}
	want := []string{"phaseshift/repart"}
	if !reflect.DeepEqual(traceScopes, want) {
		t.Errorf("trace scopes = %v, want %v", traceScopes, want)
	}
	if len(attribScopes) != 1 || !attribScopes[want[0]] {
		t.Errorf("attribution scopes = %v, want %v", attribScopes, want)
	}
}
