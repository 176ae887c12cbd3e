package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"tcb/internal/stats"
)

// selfTestSeconds is the run length the self-test uses: 2 % of
// BENCHMARK.json's run_seconds, enough for every phase to carry a few
// dozen requests. (The saturation window is then shorter than the first
// launch's encode, so its figures may read 0 here; at full length they
// cannot.)
const selfTestSeconds = 0.4

// TestEveryWorkloadEmitsEveryMetric runs every workload at a fiftieth of full
// length — untraced, and traced on the two workloads with paths of their own
// (prefixes, tenants) — and checks that each metric BENCHMARK.json names
// comes out exactly once, finite, with its unit, and that no operation
// failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, bw := range bf.Workloads {
		w := workloads[i]
		if bw.Name != w.Name || bw.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bw.Name, bw.Why, w.Name, w.Why)
		}
		for _, mode := range []struct {
			trace bool
			want  []benchmarkMetric
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			if mode.trace && w.Name != "encode-heavy-prefix" && w.Name != "tenant-flood" {
				continue
			}
			rep, err := runWorkload(runOptions{Workload: w, Seed: 7, Seconds: selfTestSeconds, Trace: mode.trace, Setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, mode.trace, err)
			}
			if rep.Attempted < 1 || rep.Failed != 0 || len(rep.Violations) != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, violations %v", w.Name, mode.trace, rep.Attempted, rep.Failed, rep.Violations)
			}
			if len(rep.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, mode.trace, len(rep.Metrics), len(mode.want))
			}
			for _, want := range mode.want {
				got, ok := rep.Metrics[want.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, mode.trace, want.Name)
				case got.Unit != want.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, want.Name, got.Unit, want.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 && want.Name != "bench.trace_overhead_pct" && want.Name != "tensor.pool_run_overhead_ns":
					t.Errorf("%s: metric %s is %v", w.Name, want.Name, got.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the benchmark's
// own metric tables in step, and inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s[%d]: name %q / unit %q outside the contract or repeated", kind, i, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s[%d] %s: bound present = %v, want %v", kind, i, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > boundCap) {
				t.Errorf("%s: bound %v outside (0, %v]", g.Name, *g.Bound, boundCap)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 || len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("metric or workload count outside the contract")
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", bf.RunSeconds, defaultSeconds)
	}
	for _, w := range bf.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestSelfTime: a span's self time is its duration minus what its children
// cover, overlapping children counted once and children clipped to it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 130}, // sticks out by 30
		{ID: 5, Parent: 2, Start: 10, End: 40},  // covers its parent exactly
		{ID: 6, Parent: 99, Start: 0, End: 7},   // parent unknown: a root
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 40, 5: 30, 6: 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	sum := summarise(spans)
	if len(sum) != 1 || sum[0].Count != len(spans) {
		t.Fatalf("summary %+v", sum)
	}
}

// TestTailPercentile: a percentile is reported only with at least
// minTailSamples samples beyond it; otherwise the highest one that has.
func TestTailPercentile(t *testing.T) {
	fill := func(n int) *stats.Sample {
		var s stats.Sample
		for i := 1; i <= n; i++ {
			s.Add(float64(i))
		}
		return &s
	}
	if _, used := tailPercentile(fill(1000), 99); used != 99 {
		t.Errorf("1000 samples leave 10 beyond P99, got P%v", used)
	}
	if v, used := tailPercentile(fill(200), 99); used != 95 || v > 191 {
		t.Errorf("200 samples support P95 at most, got P%v = %v", used, v)
	}
	if _, used := tailPercentile(fill(12), 99); used != 50 {
		t.Errorf("12 samples fall back to the median, got P%v", used)
	}
	if v, used := tailPercentile(fill(0), 99); v != 0 || used != 0 {
		t.Errorf("empty sample gives (%v, %v)", v, used)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTraceDeterminism: the same seed gives byte-identical requests, another
// seed different ones, on every workload and in both phases.
func TestTraceDeterminism(t *testing.T) {
	vocab := baseConfig().Model.VocabSize
	for _, w := range workloads {
		gen := func(seed uint64) [][]request {
			sat, err := w.satTrace(200, seed, vocab)
			if err != nil {
				t.Fatal(err)
			}
			open, err := w.openTrace(1.5, seed, vocab)
			if err != nil {
				t.Fatal(err)
			}
			return [][]request{sat, open}
		}
		a, b, c := gen(5), gen(5), gen(6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different requests", w.Name)
		}
		if reflect.DeepEqual(a[1], c[1]) {
			t.Errorf("%s: different seeds, same open trace", w.Name)
		}
		if len(a[0]) != 200 {
			t.Errorf("%s: sat trace has %d requests, want 200", w.Name, len(a[0]))
		}
		for _, rq := range a[1] {
			if rq.Limit <= 0 || rq.Limit >= satDeadline || rq.Due < 0 || rq.Due > 1500*time.Millisecond {
				t.Fatalf("%s: open request due %v limit %v", w.Name, rq.Due, rq.Limit)
			}
			if len(rq.Tokens) > baseConfig().L || rq.PrefixLen >= len(rq.Tokens) {
				t.Fatalf("%s: request of %d tokens, prefix %d", w.Name, len(rq.Tokens), rq.PrefixLen)
			}
		}
	}
}

// TestWorkClock: the clock is the time integral of the sampled speed, each
// probe counting until the next; Now reports the speed of the last
// speedWindow.
func TestWorkClock(t *testing.T) {
	t0 := time.Now().Add(-time.Second)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &workClock{
		t:     []time.Time{at(0), at(100), at(300)},
		v:     []float64{0, 0.1 * 1.0, 0.1*1.0 + 0.2*0.5},
		speed: []float64{1.0, 0.5, 2.0},
		cpu:   []int{0, 1, 0},
	}
	for _, tc := range []struct {
		ms   int
		want float64
	}{{0, 0}, {50, 0.05}, {100, 0.1}, {200, 0.15}, {300, 0.2}, {400, 0.4}} {
		if got := c.At(at(tc.ms)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%d ms) = %v, want %v", tc.ms, got, tc.want)
		}
	}
	if got := c.Between(at(50), at(350)); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("Between(50 ms, 350 ms) = %v, want 0.25", got)
	}
	if got := c.SpeedByCPU(at(0), at(300)); len(got) != 2 || got[0] != 1.5 || got[1] != 0.5 {
		t.Errorf("SpeedByCPU = %v, want [1.5 0.5]", got)
	}
	// A second after t0 only the last knot's speed is inside the window.
	if _, speed := c.Now(); math.Abs(speed-2.0) > 1e-6 {
		t.Errorf("Now speed = %v, want 2", speed)
	}
}
