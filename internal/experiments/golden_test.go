package experiments

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// goldenFigures are the deterministic simulated figures pinned by
// testdata/sim_figures.jsonl (fig16 divides by real scheduler wall-clock and
// is left out).
var goldenFigures = []string{
	"fig09", "fig10", "fig11", "fig12", "fig15a", "fig15b", "fig15c",
	"ext-overlap", "ext-bimodal", "ext-efficiency", "ext-scaling", "ext-latency",
	"ext-weighted", "ext-cluster", "ext-fairness",
	"ablation-eta", "ablation-slot-policy", "ablation-early-cleaning",
}

// TestSimFiguresGolden regenerates the simulated figures and compares them
// byte for byte with the committed outputs of
//
//	tcb-bench -json -seed 3 -duration 0.5 <goldenFigures...>
//
// A simulator refactor must leave every figure where it was; when a change
// is meant to move one, regenerate the file with that command and say why.
func TestSimFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64; other compilers may fuse multiply-adds and move the last bits")
	}
	want, err := os.ReadFile("testdata/sim_figures.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]bool, len(goldenFigures))
	for _, id := range goldenFigures {
		pinned[id] = true
	}
	var got bytes.Buffer
	var ran []string
	for _, r := range All(Options{Duration: 0.5, Seed: 3, Seeds: 1}) {
		if !pinned[r.ID] {
			continue
		}
		fig, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if err := fig.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		ran = append(ran, r.ID)
	}
	gotLines := bytes.SplitAfter(got.Bytes(), []byte("\n"))
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	if len(ran) != len(goldenFigures) || len(gotLines) != len(wantLines) {
		t.Fatalf("regenerated %d of %d figures into %d lines; %d pinned",
			len(ran), len(goldenFigures), len(gotLines)-1, len(wantLines)-1)
	}
	for i, id := range ran {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("%s moved:\n got  %s want %s", id, gotLines[i], wantLines[i])
		}
	}
}
