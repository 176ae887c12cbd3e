package main

import (
	"strings"
	"testing"

	"tcb/internal/experiments"
)

// Every gate must name an experiment that still exists: a gate on a deleted
// runner would never fire, and CI would go on "passing" a check that no
// longer runs.
func TestGatesNameRunners(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range experiments.All(experiments.Options{Duration: 5, Seed: 1}) {
		ids[r.ID] = true
	}
	for id, g := range gates {
		if !ids[id] {
			t.Errorf("gate %q names no runner in experiments.All", id)
		}
		if len(g.checks) == 0 || g.file == "" {
			t.Errorf("gate %q has no checks or no output file: %+v", id, g)
		}
	}
}

// check selects the point(s) each check names — every point ("min"), the
// sweep's best ("best"), the smallest or largest x ("first", "last") — and
// holds the weakest selected value to factor × gate.
func TestGateCheckSelection(t *testing.T) {
	fig := &experiments.Figure{ID: "hand", XLabel: "x", X: []float64{1, 2, 3}}
	for _, y := range []float64{1.2, 0.8, 1.5} {
		fig.AddPoint("s", y)
	}
	rows := []struct {
		at     string
		factor float64
		gate   float64
		fail   string // substring of the error; "" = pass
	}{
		{"min", 1, 0.8, ""},
		{"min", 1, 1.0, "0.800 at x=2"},
		{"min", 0.5, 1.5, ""}, // bar 0.75 under the weakest point
		{"best", 1, 1.5, ""},
		{"best", 1, 1.6, "1.500 at x=3"},
		{"first", 1, 1.2, ""},
		{"first", 1, 1.3, "1.200 at x=1"},
		{"last", 1, 1.5, ""},
		{"last", 1, 1.6, "1.500 at x=3"},
		{"min", 1, 0, ""}, // -gate 0 is off
	}
	for _, r := range rows {
		spec := gateSpec{file: "unused.json", checks: []gateCheck{{"s", r.at, r.factor}}}
		err := spec.check("hand", fig, r.gate)
		switch {
		case r.fail == "" && err != nil:
			t.Errorf("%s ×%g at gate %g: unexpected %v", r.at, r.factor, r.gate, err)
		case r.fail != "" && (err == nil || !strings.Contains(err.Error(), r.fail)):
			t.Errorf("%s ×%g at gate %g: err = %v, want one naming %q", r.at, r.factor, r.gate, err, r.fail)
		}
	}

	missing := gateSpec{checks: []gateCheck{{"nope", "min", 1}}}
	if err := missing.check("hand", fig, 1); err == nil {
		t.Error("a check on a missing series must fail")
	}
	if err := (gateSpec{checks: []gateCheck{{"s", "min", 1}}}).check("empty", &experiments.Figure{}, 1); err == nil {
		t.Error("a figure with no points must fail its gate")
	}
}
