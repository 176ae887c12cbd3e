package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"tcb/internal/cluster"
)

// counters pulls the run's counters back out of the printed report, so the
// matrix asserts on what an operator would read.
func counters(t *testing.T, out string) (served, submitted, delivered int64) {
	t.Helper()
	found := 0
	for _, line := range strings.Split(out, "\n") {
		var sent, rejected int64
		if n, _ := fmt.Sscanf(line, "sent=%d rejected=%d served=%d", &sent, &rejected, &served); n == 3 {
			found++
		}
		if n, _ := fmt.Sscanf(line, "lifecycle: submitted=%d delivered=%d", &submitted, &delivered); n == 2 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("report lacks the sent= or lifecycle: line:\n%s", out)
	}
	return
}

// TestRunMatrix drives run in-process over the invocations CI used to shell
// out for, at reduced -n: every one must pass its own verdict (zero lost,
// accounting matches, prefix ledgers balanced, something served under
// chaos).
func TestRunMatrix(t *testing.T) {
	rows := []struct {
		name, args string
		minServed  int64
	}{
		{"plain chaos", "-n 16 -rate 200 -chaos err=0.2,panic=0.05", 1},
		{"pipeline chaos", "-n 16 -rate 200 -pipeline -batch-timeout 2s -chaos err=0.2,panic=0.05", 1},
		{"refill chaos", "-n 16 -refill -rate 300 -chaos err=0.2,panic=0.05,lose=0.05", 1},
		{"prefix+refill chaos", "-n 24 -prefix-cache -refill -rate 300 -chaos err=0.2,panic=0.05,lose=0.05", 1},
		{"kill one of three", "-replicas 3 -route least -n 24 -rate 300 -chaos killafter=5 -chaos-target 1", 1},
		{"wedge and respawn", "-replicas 3 -route rr -n 16 -rate 100 -deadline 3s -chaos wedgeafter=2 -chaos-target 0 -stall-timeout 200ms -respawn-deadline 300ms", 1},
		{"two-tenant fair chaos", "-n 24 -rate 200 -tenants alpha:1,beta:4 -chaos err=0.2,panic=0.05", 1},
		// A one-member cluster is still a cluster: the killed engine is
		// ejected and respawned clean (nine 250 ms probe failures, a bounded
		// drain, two probation probes: the stream has to outlast ~3 s) and
		// the tail of the stream is served instead of everything after the
		// kill failing: the first engine lives for three one-or-two-request
		// batches at this rate, so a dozen served means a second generation.
		{"one member killed, respawns", "-replicas 1 -n 100 -rate 25 -deadline 500ms -respawn-deadline 300ms -chaos killafter=3", 12},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(parseFlags(strings.Fields(row.args)), &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			served, submitted, delivered := counters(t, out.String())
			if submitted == 0 || delivered != submitted {
				t.Fatalf("submitted=%d delivered=%d", submitted, delivered)
			}
			if served < row.minServed {
				t.Fatalf("served=%d, want >= %d:\n%s", served, row.minServed, out.String())
			}
			if strings.Contains(row.args, "-prefix-cache") && !strings.Contains(out.String(), "ledgers-balanced=true") {
				t.Fatalf("prefix ledgers not reported balanced:\n%s", out.String())
			}
		})
	}
}

// TestRunServesNothingFails: a chaos run in which every engine call fails
// returns the error main turns into exit 1.
func TestRunServesNothingFails(t *testing.T) {
	var out bytes.Buffer
	err := run(parseFlags(strings.Fields("-n 8 -rate 400 -deadline 300ms -retries 1 -chaos err=1")), &out)
	if err == nil || !strings.Contains(err.Error(), "served nothing") {
		t.Fatalf("err = %v, want the served-nothing verdict\n%s", err, out.String())
	}
}

// TestReportKernelsLine: the float32 wide kernel is the only one serving, so
// the report names its dispatch count and the ISA body behind it and nothing
// else (scalar and int8 no longer serve, so their counters would always read 0).
func TestReportKernelsLine(t *testing.T) {
	var out bytes.Buffer
	if err := run(parseFlags(strings.Fields("-n 4 -rate 400")), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`(?m)^kernels: wide=(\d+) isa=(avx2|go)$`).FindStringSubmatch(out.String())
	if m == nil || m[1] == "0" {
		t.Fatalf("want one `kernels: wide=N isa=avx2|go` line with N > 0:\n%s", out.String())
	}
	if strings.Contains(out.String(), "int8=") || strings.Contains(out.String(), "scalar=") {
		t.Fatalf("report still prints the retired kernels:\n%s", out.String())
	}
}

// TestRunRejectsBadNames: unknown names fail before anything is built.
func TestRunRejectsBadNames(t *testing.T) {
	for _, args := range []string{"-scheduler lifo", "-scheduler slotted", "-route random", "-chaos oops", "-tenants a:b"} {
		if err := run(parseFlags(strings.Fields(args)), &bytes.Buffer{}); err == nil {
			t.Errorf("%s: no error", args)
		}
	}
}

// TestVerdict pins each way a finished run can fail, independent of whether
// a live run happens to produce it.
func TestVerdict(t *testing.T) {
	balanced := func(n int64) cluster.Stats { return cluster.Stats{Submitted: n, Delivered: n} }
	rows := []struct {
		name string
		rep  report
		want string // substring of the error; "" = pass
	}{
		{"clean", report{sent: 4, served: 4, stats: balanced(4), prefixBalanced: true}, ""},
		{"chaos with failures", report{sent: 4, served: 1, failed: 3, stats: balanced(4), prefixBalanced: true, chaosOn: true}, ""},
		{"lost", report{sent: 4, served: 3, stats: cluster.Stats{Submitted: 4, Delivered: 3}, prefixBalanced: true}, "LOST"},
		{"accounting", report{sent: 3, served: 3, stats: balanced(4), prefixBalanced: true}, "accounting"},
		{"ledger leak", report{sent: 4, served: 4, stats: balanced(4)}, "leaked"},
		{"chaos served nothing", report{sent: 4, failed: 4, stats: balanced(4), prefixBalanced: true, chaosOn: true}, "served nothing"},
		{"failure without chaos", report{sent: 4, served: 3, failed: 1, stats: balanced(4), prefixBalanced: true}, "failed without"},
	}
	for _, row := range rows {
		err := row.rep.verdict()
		switch {
		case row.want == "" && err != nil:
			t.Errorf("%s: unexpected %v", row.name, err)
		case row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)):
			t.Errorf("%s: err = %v, want %q", row.name, err, row.want)
		}
	}
}
