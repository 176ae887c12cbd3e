package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"tcb/internal/workload"
)

// TestGenerateSummarizeRoundTrip: a trace written with -out and read back
// with -in reports the request count and prefix mix the generator drew at
// that seed.
func TestGenerateSummarizeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	args := "-rate 200 -duration 2 -seed 7 -prefix-pool 4 -prefix-reuse 0.5 -prefix-len 8"
	var out bytes.Buffer
	if code := run(append(strings.Fields(args), "-out", path), &out); code != 0 {
		t.Fatalf("generate exited %d: %s", code, out.String())
	}
	want, err := workload.Generate(workload.Spec{
		Rate: 200, Duration: 2, MinLen: 3, MaxLen: 100, MeanLen: 20, VarLen: 20,
		DeadlineMin: 0.5, DeadlineMax: 3, Seed: 7,
		PrefixPool: 4, PrefixReuse: 0.5, PrefixLen: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("wrote %d requests to %s\n", len(want), path); out.String() != line {
		t.Fatalf("generate printed %q, want %q", out.String(), line)
	}
	prefixed, ids := 0, map[int64]bool{}
	for _, r := range want {
		if r.PrefixID != 0 {
			prefixed++
			ids[r.PrefixID] = true
		}
	}
	if prefixed == 0 {
		t.Fatal("no prefixed requests drawn; the round trip would not check the prefixed: line")
	}

	out.Reset()
	if code := run([]string{"-in", path}, &out); code != 0 {
		t.Fatalf("summarize exited %d: %s", code, out.String())
	}
	for _, line := range []string{
		fmt.Sprintf("requests: %d\n", len(want)),
		"spec: rate=200 duration=2 seed=7\n",
		fmt.Sprintf("prefixed: %d/%d requests over %d distinct prefixes\n", prefixed, len(want), len(ids)),
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("summary lacks %q:\n%s", line, out.String())
		}
	}
}

// TestExitCodes: no mode is a usage error (2); an unreadable -in is a
// failure (1).
func TestExitCodes(t *testing.T) {
	for _, row := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-in", filepath.Join(t.TempDir(), "missing.json")}, 1},
	} {
		if code := run(row.args, &bytes.Buffer{}); code != row.want {
			t.Errorf("%v: exit %d, want %d", row.args, code, row.want)
		}
	}
}
