package fault

import "testing"

// FuzzParseSpec checks the -chaos flag parser never panics, only
// accepts specs that validate, and is idempotent through String():
// parse → render → parse must converge.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("seed=3,rate=0.5")
	f.Add("seed=3,rate=0.5,pfail=0.05,kinds=worker+gpu,after=1s,until=30s,max=10")
	f.Add("kinds=submit")
	f.Add("rate=1e309")
	f.Add("pfail=NaN")
	f.Add("rate==,,=")
	f.Add("until=-5s")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted invalid spec %+v: %v", s, spec, verr)
		}
		rendered := spec.String()
		again, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(%q) → String() = %q does not reparse: %v", s, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("String() not a fixed point: %q → %q", rendered, again.String())
		}
	})
}
