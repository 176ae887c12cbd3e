package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tcb/internal/stats"
)

// checkInvariants verifies, after Drain, the whole-system promises: every
// request sent has exactly one terminal outcome, every device-memory ledger
// is back to zero, and the cluster delivered everything it accepted.
func checkInvariants(s *sut, phases ...phaseResult) []string {
	var out []string
	for pi, p := range phases {
		c := p.counts()
		if c.OnTime+c.Late+c.Refused+c.Failed != c.Sent {
			out = append(out, fmt.Sprintf("phase %d: %d sent but %d on time + %d late + %d refused + %d failed", pi, c.Sent, c.OnTime, c.Late, c.Refused, c.Failed))
		}
		for i, ch := range p.chans {
			if ch == nil {
				continue
			}
			select {
			case <-ch:
				out = append(out, fmt.Sprintf("phase %d request %d: second response on its channel", pi, i))
			default:
			}
		}
	}
	out = append(out, s.ledgerViolations()...)
	if st := s.Stats(); st.Submitted != st.Delivered {
		out = append(out, fmt.Sprintf("cluster submitted %d but delivered %d", st.Submitted, st.Delivered))
	}
	return out
}

// lagStats summarises how late the generator sent: P99 of send − due in
// milliseconds, and the share of sends more than lateSend late.
func lagStats(p phaseResult) (p99ms, latePct float64) {
	var lag stats.Sample
	late := 0
	for _, sm := range p.samples {
		lag.Add(sm.lag.Seconds() * 1000)
		if sm.lag > lateSend {
			late++
		}
	}
	if lag.N() == 0 {
		return 0, 0
	}
	return lag.Percentile(99), pct(float64(late), float64(lag.N()))
}

// checkGenerator marks the run invalid when the open-loop generator did not
// keep to its schedule.
func checkGenerator(open phaseResult) []string {
	if p99, late := lagStats(open); p99 > maxLagP99.Seconds()*1000 {
		return []string{fmt.Sprintf("load generator fell behind: send lag P99 %.2f ms (limit %v), %.2f%% of sends more than %v late", p99, maxLagP99, late, lateSend)}
	}
	return nil
}

// Output check sampling: one delivered request in checkEvery, topped up to
// at least checkMin per run. (One in 16, not one in 8: the check runs each
// sampled request alone, about 10 ms apiece, inside the run's time limit.)
const (
	checkEvery = 16
	checkMin   = 256
)

// checkOutputs compares a deterministic sample of delivered outputs token for
// token with the same request served alone on a reference engine. A mismatch
// turns the request into a failed operation. It returns how many it checked.
func checkOutputs(cfg sutConfig, seed uint64, phases ...*phaseResult) int {
	type pick struct{ p, i int }
	var all, picks []pick
	for pi, p := range phases {
		for i, sm := range p.samples {
			if sm.kind == delivered {
				all = append(all, pick{pi, i})
			}
		}
	}
	stride := checkEvery
	if len(all) < checkMin*checkEvery {
		stride = max(1, len(all)/checkMin)
	}
	for k := int(seed % uint64(stride)); k < len(all); k += stride {
		picks = append(picks, all[k])
	}
	// One reference engine per core: the check is pure compute.
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref := newEngine(cfg) // the same model and generation caps, no batching, no prefix cache
			for k := w; k < len(picks); k += workers {
				p, i := phases[picks[k].p], picks[k].i
				rq, sm := p.reqs[i], &p.samples[i]
				want, err := runAlone(ref, rq.Tokens, rq.PrefixLen)
				if err == nil && !slices.Equal(want, sm.output) {
					err = fmt.Errorf("output differs from the request served alone: got %v want %v", sm.output, want)
				}
				if err != nil {
					sm.kind, sm.onTime, sm.err = failed, false, err
				}
			}
		}(w)
	}
	wg.Wait()
	return len(picks)
}
