package fleet

import (
	"errors"
	"testing"
)

// FuzzPlace drives arbitrary demand-spec strings through the parser
// and the packer entry, with Validate and the reference search as the
// oracles: any input the parser accepts must place (or reject with a
// typed error) exactly where bestCandidateRef would, while preserving
// every structural invariant, then survive evicting every other tenant,
// and the whole run must be deterministic.
func FuzzPlace(f *testing.F) {
	f.Add("a:10:5;b:99;c:3:0.5")
	f.Add("t0:1")
	f.Add("big:108:80;small:1:1")
	f.Add("x:98:40;y:98:40;z:98:40")
	f.Add("m:14:10;n:28:20;o:42:40;p:56:40;q:98:80")
	f.Add("a:5;a:5")
	f.Add(";;")
	f.Add("a:-1:1e309")
	f.Fuzz(func(t *testing.T, spec string) {
		demands, err := ParseDemands(spec)
		if err != nil {
			if len(demands) != 0 {
				t.Fatalf("parse error %v but returned %d demands", err, len(demands))
			}
			return
		}
		run := func() *Cluster {
			c, err := New(Config{Inventory: mixedInventory(2, 1)})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range demands {
				checkCandidate(t, c, d)
				if _, err := c.Place(d); err != nil && !errors.Is(err, ErrUnplaceable) {
					t.Fatalf("demand %+v: unexpected error class: %v", d, err)
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("after placing %+v: %v", d, err)
				}
			}
			return c
		}
		a := run()
		b := run()
		if !placementsEqual(a, b) {
			t.Fatal("identical demand streams produced different placements")
		}
		for i, tn := range a.Demands() {
			if i%2 != 0 {
				continue
			}
			if err := a.Evict(tn.Tenant); err != nil {
				t.Fatalf("evicting %q: %v", tn.Tenant, err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("after evicting %q: %v", tn.Tenant, err)
			}
			checkCandidate(t, a, tn)
		}
	})
}
