// Command tcb-bench regenerates the paper's evaluation figures (and this
// repository's ablations) as text tables.
//
// Usage:
//
//	tcb-bench [-duration seconds] [-seed n] [-json] [-list] [id ...]
//
// With no ids it runs everything: fig09–fig16 plus the ablations. Figures
// 13–14 run the real Go engine and dominate the runtime.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the usual
// `go tool pprof` inputs).
//
// The gated A/B experiments (ext-refill, ext-prefix, ext-cluster,
// ext-fairness) are CI gates: under -json each also writes its figure to
// BENCH_<name>.json, and -gate g fails the run when the experiment misses its
// threshold at g — see the gates table below for what each one compares.
// ext-pipeline still runs, ungated: on a 2-vCPU runner it reads 0.86–1.06
// on either side of any change, so a gate on it would decide nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"tcb/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run holds the whole program so that profile-flushing defers execute on
// every exit path (os.Exit would skip them).
func run() error {
	duration := flag.Float64("duration", 5, "trace length in simulated seconds per data point")
	seed := flag.Uint64("seed", 1, "workload seed")
	seeds := flag.Int("seeds", 1, "seeds to average per simulated data point")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON line per figure instead of text tables")
	csvDir := flag.String("csv", "", "also write each figure as <dir>/<id>.csv")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	gate := flag.Float64("gate", 0, "fail if a gated A/B experiment (ext-refill, -prefix, -cluster, -fairness) misses this threshold (0 = off)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	opt := experiments.Options{Duration: *duration, Seed: *seed, Seeds: *seeds}
	if *list {
		for _, r := range experiments.All(opt) {
			fmt.Println(r.ID)
		}
		return nil
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	want := map[string]bool{}
	for _, id := range flag.Args() {
		want[id] = true
	}
	for _, r := range experiments.All(opt) {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		fig, err := r.Run()
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := fig.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		if g, gated := gates[r.ID]; gated {
			if *jsonOut {
				if err := writeJSONFile(g.file, fig); err != nil {
					return err
				}
			}
			if err := g.check(r.ID, fig, *gate); err != nil {
				return err
			}
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, r.ID+".csv"))
			if err != nil {
				return err
			}
			if err := fig.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			f.Close()
		}
	}
	return nil
}

// writeJSONFile writes one figure's JSON to a named file for CI pickup.
func writeJSONFile(name string, fig *experiments.Figure) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := fig.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gateSpec says how -gate judges one A/B experiment: every check must hold.
// Every gated win is less work, not parallelism, so it holds on one core too.
type gateSpec struct {
	file   string // written under -json for CI pickup
	checks []gateCheck
}

// gateCheck requires series to reach factor × gate at the point(s) at
// selects: "min" every point, "best" the sweep's best point (a real
// regression drags every point down together; one point grazing the line on
// a shared runner is noise), "first" / "last" the smallest / largest x.
type gateCheck struct {
	series string
	at     string
	factor float64
}

var gates = map[string]gateSpec{
	// Refill's win is fewer total decode steps.
	"ext-refill": {"BENCH_refill.json", []gateCheck{{"speedup", "best", 1}}},
	// At 0% reuse nothing is ever resident and both sides do identical work,
	// so the best of the three pairs must sit within 5% runner noise of the
	// gate (an idle cache that slows bystanders shifts every pair); at the
	// top reuse fraction the cache must deliver a real win.
	"ext-prefix": {"BENCH_prefix.json", []gateCheck{{"speedup-best", "first", 0.95}, {"speedup", "last", 1.2}}},
	// Simulated, so no noise and no skip: more replicas (N=3 loses one for
	// half the run) never serve less than a single replica.
	"ext-cluster": {"BENCH_cluster.json", []gateCheck{{"speedup", "min", 1}}},
	// Simulated. The last scenario is the flood with fairness on: the
	// well-behaved tenants keep the gate fraction of their no-flood goodput
	// and split it with a Jain index at or above the gate.
	"ext-fairness": {"BENCH_fairness.json", []gateCheck{{"ratio", "last", 1}, {"jain-good", "last", 1}}},
}

// check enforces -gate against one gated experiment's figure.
func (g gateSpec) check(id string, fig *experiments.Figure, gate float64) error {
	if gate <= 0 {
		return nil
	}
	if len(fig.X) == 0 {
		return fmt.Errorf("tcb-bench: %s produced no points to gate", id)
	}
	for _, c := range g.checks {
		// Figures list their points in sweep order, so the ends are the
		// smallest and largest x.
		lo, hi := 0, len(fig.X)
		switch c.at {
		case "first":
			hi = 1
		case "last":
			lo = hi - 1
		}
		// worst is the value that must clear the bar: the weakest of the
		// selected points, or the strongest when only the best point counts.
		worst, at := 0.0, lo
		for i := lo; i < hi; i++ {
			v, err := fig.Get(c.series, i)
			if err != nil {
				return err
			}
			replaces := v < worst
			if c.at == "best" {
				replaces = v > worst
			}
			if i == lo || replaces {
				worst, at = v, i
			}
		}
		if bar := c.factor * gate; worst < bar {
			return fmt.Errorf("tcb-bench: %s %s %.3f at %s=%g below gate %.3f (%s point)",
				id, c.series, worst, fig.XLabel, fig.X[at], bar, c.at)
		}
		fmt.Fprintf(os.Stderr, "tcb-bench: %s gate ok: %s %.3f at %s=%g (%s point, gate %.3f)\n",
			id, c.series, worst, fig.XLabel, fig.X[at], c.at, c.factor*gate)
	}
	return nil
}
