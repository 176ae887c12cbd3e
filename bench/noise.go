package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// runChild runs one workload in a fresh process of this same binary — the
// way the benchmark's driver runs it — and returns the parsed result line.
// The child's report is passed through to standard output.
func runChild(name string, seed uint64, seconds float64, trace bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Println(last)
		return result{}, fmt.Errorf("%s: no result line (%v; exit: %v)", name, err, runErr)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// runAll runs every workload once, each in its own process, and prints one
// result line per workload.
func runAll(seed uint64, seconds float64, trace bool) error {
	var firstErr error
	for _, w := range workloads {
		fmt.Printf("=== %s\n", w.Name)
		res, err := runChild(w.Name, seed, seconds, trace)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		line, _ := json.Marshal(res)
		fmt.Printf("result %s %s\n", w.Name, line)
	}
	return firstErr
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the benchmark's driver computes spreads with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadStat is one metric's run-to-run statistics on one workload.
type spreadStat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3 − Q1) / median
	Values []float64 `json:"values"`
}

// baseline is what -noise writes: the committed record of what this code
// measured on this machine, and the bounds its noise supports.
type baseline struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Sets       int     `json:"sets"`
	FirstSeed  uint64  `json:"first_seed"`
	Seconds    float64 `json:"seconds"`

	SUT       sutConfig     `json:"sut"`
	Workloads []workloadDef `json:"workloads"`

	// Stats[workload][metric].
	Stats map[string]map[string]spreadStat `json:"stats"`
	// DerivedBounds[metric] = boundFactor × the metric's widest spread over
	// the workloads, rounded up to a whole percent and floored at
	// boundFloor; BENCHMARK.json's bounds were set from a run of this.
	DerivedBounds map[string]float64 `json:"derived_bounds"`
}

const (
	boundFactor = 3.0
	boundFloor  = 0.02
	boundCap    = 0.25
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON is BENCHMARK.json's place relative to the benchmark's
// directory (the working directory under `go run -C bench tcb/bench`).
const benchmarkJSON = "../BENCHMARK.json"

// readBaseline returns the committed baseline (empty if there is none yet).
func readBaseline() baseline {
	var bl baseline
	if raw, err := os.ReadFile("baseline.json"); err == nil {
		_ = json.Unmarshal(raw, &bl) // an unreadable baseline is no baseline
	}
	return bl
}

func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	return bf, nil
}

// runNoise runs sets full sets of end-to-end runs — every workload, a fresh
// process each, a different seed per set — prints each metric's median,
// quartiles and relative spread per workload and how far the median moved
// from the one baseline.json holds, writes baseline.json with the bounds that
// noise supports, and fails if a spread exceeds the bound BENCHMARK.json
// records for its metric or a median is worse than the old baseline's by
// more than that bound (the two checks the benchmark's driver makes).
func runNoise(sets int, firstSeed uint64, seconds float64) error {
	if sets < 2 {
		return fmt.Errorf("-noise needs at least 2 sets to take quartiles, got %d", sets)
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	values := make(map[string]map[string][]float64)
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			fmt.Printf("=== set %d/%d %s\n", set+1, sets, w.Name)
			res, err := runChild(w.Name, firstSeed+uint64(set), seconds, false)
			if err != nil {
				return err
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
		}
	}
	cfg := baseConfig()
	bl := baseline{
		Commit: commitID(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: generatorProcs(),
		Sets: sets, FirstSeed: firstSeed, Seconds: seconds,
		SUT: cfg, Workloads: workloads,
		Stats:         make(map[string]map[string]spreadStat),
		DerivedBounds: make(map[string]float64),
	}
	old := readBaseline()
	var over []string
	fmt.Printf("\n%-22s %-24s %12s %12s %12s %8s %7s %9s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "vs-old")
	for _, w := range workloads {
		bl.Stats[w.Name] = make(map[string]spreadStat)
		for _, d := range endToEnd {
			vs := values[w.Name][d.Name]
			q1, q2, q3 := quartiles(vs)
			st := spreadStat{Median: q2, Q1: q1, Q3: q3, Spread: div(q3-q1, q2), Values: vs}
			bl.Stats[w.Name][d.Name] = st
			bl.DerivedBounds[d.Name] = max(bl.DerivedBounds[d.Name], st.Spread)
			// worse is how far the median moved from the old baseline's in
			// the metric's bad direction, as a share of the old median.
			worse := 0.0
			if was := old.Stats[w.Name][d.Name].Median; was != 0 {
				worse = (q2 - was) / was
				if d.Better == "higher" {
					worse = -worse
				}
			}
			fmt.Printf("%-22s %-24s %12.4f %12.4f %12.4f %7.2f%% %6.0f%% %+8.2f%%\n", w.Name, d.Name, q2, q1, q3, 100*st.Spread, 100*bounds[d.Name], 100*worse)
			b, ok := bounds[d.Name]
			// setup_s's spread is exempt, as in the driver's own check.
			if ok && d.Name != "setup_s" && st.Spread > b {
				over = append(over, fmt.Sprintf("%s on %s: spread %.1f%% exceeds bound %.0f%%", d.Name, w.Name, 100*st.Spread, 100*b))
			}
			if ok && worse > b {
				over = append(over, fmt.Sprintf("%s on %s: median %.1f%% worse than the old baseline's, bound %.0f%%", d.Name, w.Name, 100*worse, 100*b))
			}
		}
	}
	fmt.Println("\nderived bounds (boundFactor x widest spread, whole percent, floor/cap applied):")
	for _, d := range endToEnd {
		widest := bl.DerivedBounds[d.Name]
		b := min(max(float64(int(boundFactor*widest*100+0.999))/100, boundFloor), boundCap)
		bl.DerivedBounds[d.Name] = b
		fmt.Printf("  %-24s widest spread %6.2f%% -> bound %.2f (BENCHMARK.json: %.2f)\n", d.Name, 100*widest, b, bounds[d.Name])
	}
	raw, err := json.MarshalIndent(bl, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("baseline.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote baseline.json")
	if len(over) > 0 {
		for _, o := range over {
			fmt.Println("NOISE:", o)
		}
		return fmt.Errorf("%d metric x workload figures outside their bounds", len(over))
	}
	return nil
}
