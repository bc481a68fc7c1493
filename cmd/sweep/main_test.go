package main

import "testing"

// TestDefaultRangesInsideDomain: with no -from/-to, every swept variable's
// default range must lie inside its domain — f in (0, 1), h and k positive,
// l non-negative — so a bare `sweep -var <v>` evaluates every point.
func TestDefaultRangesInsideDomain(t *testing.T) {
	for _, c := range []struct {
		variable string
		ok       func(x float64) bool
	}{
		{"l", func(x float64) bool { return x >= 0 }},
		{"h", func(x float64) bool { return x > 0 }},
		{"k", func(x float64) bool { return x > 0 }},
		{"f", func(x float64) bool { return x > 0 && x < 1 }},
	} {
		from, to := defaultRange(c.variable, defaultHMM, defaultK)
		if !(from < to) || !c.ok(from) || !c.ok(to) {
			t.Errorf("-var %s: default range [%g, %g] leaves its domain", c.variable, from, to)
		}
	}
	// h and k center on their fixed values.
	if from, to := defaultRange("h", defaultHMM, defaultK); !(from < defaultHMM && defaultHMM < to) {
		t.Errorf("-var h: default range [%g, %g] does not contain -h %g", from, to, defaultHMM)
	}
	if from, to := defaultRange("k", defaultHMM, defaultK); !(from < defaultK && defaultK < to) {
		t.Errorf("-var k: default range [%g, %g] does not contain -k %g", from, to, defaultK)
	}
}
