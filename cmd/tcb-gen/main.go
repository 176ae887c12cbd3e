// Command tcb-gen generates, inspects and replays workload traces.
//
// Usage:
//
//	tcb-gen -out trace.json [-rate 450] [-duration 10] [-mean 20] [-var 20] [-seed 1]
//	tcb-gen -in trace.json            # print summary statistics
//
// It exits 0 on success, 1 when a trace cannot be generated, written or
// read, and 2 on a usage error (neither -out nor -in, or a bad flag).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tcb/internal/stats"
	"tcb/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, does the one thing they ask, reports to stdout (errors to
// stderr) and returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("tcb-gen", flag.ContinueOnError)
	out := fs.String("out", "", "write a generated trace to this path")
	in := fs.String("in", "", "read and summarize a trace from this path")
	rate := fs.Float64("rate", 450, "arrival rate (req/s)")
	duration := fs.Float64("duration", 10, "trace duration (s)")
	mean := fs.Float64("mean", 20, "mean request length (tokens)")
	variance := fs.Float64("var", 20, "request length variance")
	minLen := fs.Int("min", 3, "minimum request length")
	maxLen := fs.Int("max", 100, "maximum request length")
	dmin := fs.Float64("dmin", 0.5, "minimum deadline offset (s)")
	dmax := fs.Float64("dmax", 3.0, "maximum deadline offset (s)")
	seed := fs.Uint64("seed", 1, "generator seed")
	prefixPool := fs.Int("prefix-pool", 0, "number of distinct shared prompt prefixes (0 disables the prefix dimension)")
	prefixReuse := fs.Float64("prefix-reuse", 0.75, "probability a request reuses a pooled prefix")
	prefixLen := fs.Int("prefix-len", 32, "shared prefix length in tokens (request length = prefix + drawn suffix)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	switch {
	case *out != "":
		spec := workload.Spec{
			Rate: *rate, Duration: *duration,
			MinLen: *minLen, MaxLen: *maxLen,
			MeanLen: *mean, VarLen: *variance,
			DeadlineMin: *dmin, DeadlineMax: *dmax,
			Seed: *seed,
		}
		if *prefixPool > 0 {
			spec.PrefixPool = *prefixPool
			spec.PrefixReuse = *prefixReuse
			spec.PrefixLen = *prefixLen
		}
		reqs, err := workload.Generate(spec)
		if err != nil {
			return fail(err)
		}
		if err := workload.SaveFile(*out, &spec, reqs); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d requests to %s\n", len(reqs), *out)
	case *in != "":
		spec, reqs, err := workload.LoadFile(*in)
		if err != nil {
			return fail(err)
		}
		var lens, slacks stats.Running
		prefixed := 0
		prefixIDs := map[int64]bool{}
		for _, r := range reqs {
			lens.Add(float64(r.Len))
			slacks.Add(r.Deadline - r.Arrival)
			if r.PrefixID != 0 {
				prefixed++
				prefixIDs[r.PrefixID] = true
			}
		}
		fmt.Fprintf(stdout, "requests: %d\n", len(reqs))
		if spec != nil {
			fmt.Fprintf(stdout, "spec: rate=%g duration=%g seed=%d\n", spec.Rate, spec.Duration, spec.Seed)
		}
		if len(reqs) > 0 {
			fmt.Fprintf(stdout, "span: %.3fs .. %.3fs\n", reqs[0].Arrival, reqs[len(reqs)-1].Arrival)
			fmt.Fprintf(stdout, "length: %s\n", &lens)
			fmt.Fprintf(stdout, "deadline slack: %s\n", &slacks)
		}
		if prefixed > 0 {
			fmt.Fprintf(stdout, "prefixed: %d/%d requests over %d distinct prefixes\n",
				prefixed, len(reqs), len(prefixIDs))
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
