package fleet

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseDemands parses a compact demand-set spec:
//
//	name:SMs[:memGB][;name:SMs[:memGB]...]
//
// memGB is a decimal GB count (1 GB = 1e9 bytes, matching the gpufaas
// pack subcommand); omitted means no memory requirement. Tenant names
// must be unique. Empty entries (trailing or doubled semicolons) are
// rejected so every accepted spec round-trips through FormatDemands.
func ParseDemands(spec string) ([]Demand, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("%w: empty demand spec", ErrBadDemand)
	}
	parts := strings.Split(spec, ";")
	out := make([]Demand, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("%w: empty entry at position %d", ErrBadDemand, i)
		}
		fields := strings.Split(part, ":")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("%w: %q (want name:SMs[:memGB])", ErrBadDemand, part)
		}
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return nil, fmt.Errorf("%w: entry %q has no tenant name", ErrBadDemand, part)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateTenant, name)
		}
		seen[name] = true
		sms, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil || sms <= 0 {
			return nil, fmt.Errorf("%w: entry %q: bad SM count %q", ErrBadDemand, part, fields[1])
		}
		d := Demand{Tenant: name, SMs: sms}
		if len(fields) == 3 {
			gb, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil || !(gb >= 0 && gb <= 1e6) { // NaN fails too
				return nil, fmt.Errorf("%w: entry %q: bad memory %q", ErrBadDemand, part, fields[2])
			}
			d.MemBytes = int64(gb * 1e9)
		}
		if err := d.validate(); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// FormatDemands renders a demand set back into the ParseDemands spec
// form. ParseDemands(FormatDemands(ds)) reproduces ds for any demand
// set whose memory sizes are whole GB multiples.
func FormatDemands(ds []Demand) string {
	var b strings.Builder
	for i, d := range ds {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s:%d", d.Tenant, d.SMs)
		if d.MemBytes > 0 {
			fmt.Fprintf(&b, ":%s", strconv.FormatFloat(float64(d.MemBytes)/1e9, 'f', -1, 64))
		}
	}
	return b.String()
}
