// Command bench is the repository's one committed benchmark: it drives the
// whole serving stack (cluster → serve → engine, every feature on) in one
// process on four traffic mixes and reports end-to-end metrics with tracing
// off, or per-layer metrics from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "traffic mix to run: "+workloadNames()+" (empty = all, each in its own process)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	noise := flag.Int("noise", 0, "run this many full sets (every workload, fresh process each) and report per-metric spread")
	flag.Parse()

	var err error
	switch {
	case *noise > 0:
		err = runNoise(*noise, *seed, *seconds)
	case *workload == "":
		err = runAll(*seed, *seconds, *trace == 1)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeconds matches BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// traceDir is where traced runs write their span files, relative to the
// benchmark's directory (the working directory under `go run -C bench tcb/bench`).
const traceDir = "out"

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in this process, prints the report and ends
// standard output with the result line. A run that is not correct is an
// error (non-zero exit) after the result has been printed.
func runOne(name string, seed uint64, seconds float64, trace bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rep, err := runWorkload(runOptions{Workload: w, Seed: seed, Seconds: seconds, Trace: trace, TraceDir: traceDir})
	if err != nil {
		return err
	}
	printReport(rep)
	line, err := json.Marshal(result{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return fmt.Errorf("%s: %d failed operations, %d violations", name, rep.Failed, len(rep.Violations))
	}
	return nil
}

// printReport prints the header and every metric by name with its unit.
func printReport(rep *runReport) {
	hdr, _ := json.Marshal(rep.Header)
	fmt.Printf("header %s\n", hdr)
	for _, phase := range []string{"sat-untraced", "sat", "open"} {
		if c, ok := rep.Phases[phase]; ok {
			fmt.Printf("phase %-12s sent=%d succeeded=%d (on-time=%d late=%d) refused=%d failed=%d\n",
				phase, c.Sent, c.Delivered, c.OnTime, c.Late, c.Refused, c.Failed)
		}
	}
	defs := endToEnd
	if rep.Header.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("outputs checked against the request served alone: %d\n", rep.Checked)
	for _, v := range rep.Violations {
		fmt.Println("VIOLATION:", v)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}
