package main

import (
	"fmt"
	"time"

	"tcb/internal/rng"
	"tcb/internal/sched"
	"tcb/internal/workload"
)

// request is one generated input: everything the pacer hands to the stack,
// plus what the benchmark needs to judge the outcome. The server sees only
// Tokens, the deadline, Tenant, Class and PrefixLen.
type request struct {
	Due       time.Duration // offset from phase start at which it is due to be sent
	Tokens    []int
	PrefixLen int
	PrefixID  int64
	Tenant    string
	Class     string
	// Limit is the request's deadline: what is submitted and what on-time is
	// judged against. Due and Limit are work time (see clock.go).
	Limit time.Duration
}

// workloadDef is one traffic mix. OpenRate and SatRate are absolute numbers
// frozen when the benchmark was defined (seed commit, this machine class):
// SatRate is the seed's sat_rps on the workload and sizes the sat phase;
// OpenRate is the open-loop offered rate, 0.7 × SatRate (tenant-flood: 1.6 ×,
// see its Why).
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	SatRate  float64 `json:"sat_rate_rps"`
	OpenRate float64 `json:"open_rate_rps"`

	// OutputCap, OutputPerInput and MeanOut describe the service on this mix
	// (see sutConfig.OutputCap / OutputPerInput / DecodeRounds).
	OutputCap      int     `json:"output_cap"`
	OutputPerInput int     `json:"output_per_input"`
	MeanOut        float64 `json:"mean_out"`

	// Flooders names tenants excluded from min_tenant_ontime_pct.
	Flooders []string `json:"flooders,omitempty"`

	// streams returns the generator streams for a trace of the given total
	// rate and duration.
	streams func(rate, duration float64, seed uint64) []workload.TenantStream
	// class maps a tenant to its SLO class ("" = unclassed, trace deadlines).
	class func(tenant string) string
}

// paperSpec is §6.2.1's request profile with variance 100.
func paperSpec(rate, duration float64, seed uint64) workload.Spec {
	sp := workload.PaperSpec(rate, duration, seed)
	sp.VarLen = 100
	return sp
}

// floodFactor is the flooder's rate as a multiple of one good tenant's:
// three good tenants at 0.2 x capacity each and the flooder at 5 x that.
const floodFactor = 5.0

var workloads = []workloadDef{
	{
		Name:    "paper-mix",
		Why:     "paper 6.2.1 traffic (len 3-100, mean 20, var 100, deadlines 0.2-1 s, output = input length): encode, decode, DAS and concat packing all carry weight",
		SatRate: 280, OpenRate: 196, OutputPerInput: 1, MeanOut: 20,
		streams: func(rate, duration float64, seed uint64) []workload.TenantStream {
			return []workload.TenantStream{{Spec: paperSpec(rate, duration, seed)}}
		},
	},
	{
		Name:    "encode-heavy-prefix",
		Why:     "64-token prefix from a pool of 16 at 75% reuse + short unique suffix, output cap 4, cache holds 8: encoder and prefixcache do the work, decode almost none",
		SatRate: 280, OpenRate: 196, OutputCap: 4, MeanOut: 4,
		streams: func(rate, duration float64, seed uint64) []workload.TenantStream {
			sp := workload.Spec{
				Rate: rate, Duration: duration, Seed: seed,
				MinLen: 4, MaxLen: 32, MeanLen: 12, VarLen: 36,
				DeadlineMin: 0.2, DeadlineMax: 1.0,
				PrefixPool: 16, PrefixReuse: 0.75, PrefixLen: baseConfig().PrefixLen,
			}
			return []workload.TenantStream{{Spec: sp}}
		},
	},
	{
		Name:    "decode-heavy-tail",
		Why:     "bimodal inputs 85% ~6 / 15% ~44 tokens, output 4 x input (cap 48), no prefixes: fused decode steps, refill admission and slot idling dominate; encoder is a small share, prefixcache bypassed",
		SatRate: 260, OpenRate: 182, OutputPerInput: 4, MeanOut: 28,
		streams: func(rate, duration float64, seed uint64) []workload.TenantStream {
			sp := workload.Spec{
				Rate: rate, Duration: duration, Seed: seed,
				MinLen: 3, MaxLen: 48, MeanLen: 6, VarLen: 4,
				DeadlineMin: 0.2, DeadlineMax: 1.0,
			}
			dist := workload.BimodalLengths{
				Low:          workload.NormalLengths{Mean: 6, Variance: 4, Min: 3, Max: 12},
				High:         workload.NormalLengths{Mean: 44, Variance: 16, Min: 32, Max: 48},
				HighFraction: 0.15,
			}
			return []workload.TenantStream{{Spec: sp, Dist: dist}}
		},
	},
	{
		Name:    "tenant-flood",
		Why:     "paper-mix profile as good0/1/2 (interactive/standard/batch) at 0.2 x capacity each + flooder at 1.0 x, class deadlines: WFQ window, expiry and DAS over a long queue instead of compute",
		SatRate: 285, OpenRate: 456, OutputPerInput: 1, MeanOut: 20,
		Flooders: []string{"flooder"},
		streams: func(rate, duration float64, seed uint64) []workload.TenantStream {
			const nGood = 3
			base := rate / (nGood + floodFactor)
			mix := workload.AdversarialMix(base, duration, seed, nGood, floodFactor)
			for i := range mix {
				mix[i].Spec.VarLen = 100
			}
			return mix
		},
		class: func(tenant string) string {
			switch tenant {
			case "good0":
				return "interactive"
			case "good2":
				return "batch"
			default:
				return "standard"
			}
		},
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// satDeadline keeps sat-phase requests from ever expiring.
const satDeadline = time.Hour

// generate draws at least n requests of the workload's profile arriving at
// the given rate.
func (w workloadDef) generate(n int, rate float64, seed uint64) ([]*sched.Request, error) {
	duration := 1.25 * float64(n) / rate
	for {
		reqs, err := workload.GenerateMix(w.streams(rate, duration, seed))
		if err != nil {
			return nil, err
		}
		if len(reqs) >= n {
			return reqs, nil
		}
		duration *= 1.5
	}
}

// openTrace generates the open-loop phase: Poisson arrivals at the
// workload's frozen rate for the given duration, with the trace's own
// deadlines (or the tenant's class default). Every seed's trace holds the
// same number of requests, rate x duration: the arrivals up to the one after
// the last are stretched to end at duration (a Poisson process conditioned
// on its count), so goodput does not vary with how many requests a seed
// happened to draw.
func (w workloadDef) openTrace(duration float64, seed uint64, vocabSize int) ([]request, error) {
	n := int(w.OpenRate*duration + 0.5)
	reqs, err := w.generate(n+1, w.OpenRate, seed)
	if err != nil {
		return nil, err
	}
	stretch := duration / reqs[n].Arrival
	return w.materialise(reqs[:n], stretch, seed, seed, vocabSize, false), nil
}

// satTrace generates exactly n requests of the workload's profile for the
// closed-loop saturation phase: no due times (a request is due when a client
// is free) and deadlines that never expire. The trace is drawn from its own
// seed, so it shares nothing with the open phase but the shared prefixes.
func (w workloadDef) satTrace(n int, seed uint64, vocabSize int) ([]request, error) {
	genSeed := seed ^ satSalt
	reqs, err := w.generate(n, w.SatRate, genSeed)
	if err != nil {
		return nil, err
	}
	return w.materialise(reqs[:n], 1, genSeed, seed, vocabSize, true), nil
}

// Independent rng streams derived from the run seed: one per request for its
// unique tokens, one per PrefixID for the shared prefix, one for the sat trace.
const (
	satSalt    = 0x5851F42D4C957F2D
	tokenSalt  = 0xA24BAED4963EE407
	prefixSalt = 0x9FB21C651E98DF25
)

// materialise turns a generated trace into submit-ready requests: arrival
// times multiplied by stretch, unique tokens drawn from the trace's seed,
// shared prefixes from the run seed and PrefixID (so both phases of a run
// share the same prompts).
func (w workloadDef) materialise(trace []*sched.Request, stretch float64, traceSeed, seed uint64, vocabSize int, sat bool) []request {
	prefixes := make(map[int64][]int)
	out := make([]request, len(trace))
	for i, r := range trace {
		rq := request{
			Due:       secs(r.Arrival * stretch),
			PrefixLen: r.PrefixLen, PrefixID: r.PrefixID,
			Tenant: r.Tenant,
		}
		if w.class != nil {
			rq.Class = w.class(r.Tenant)
		}
		switch {
		case sat:
			rq.Due = 0
			rq.Limit = satDeadline
		case rq.Class != "":
			rq.Limit = classDeadline(rq.Class)
		default:
			rq.Limit = time.Duration((r.Deadline - r.Arrival) * float64(time.Second))
		}
		src := rng.New(traceSeed ^ tokenSalt ^ uint64(i+1)*0x9E3779B97F4A7C15)
		rq.Tokens = randTokens(src, r.Len, vocabSize)
		if r.PrefixID != 0 {
			pfx, ok := prefixes[r.PrefixID]
			if !ok {
				pfx = randTokens(rng.New(seed^prefixSalt^uint64(r.PrefixID)*0xD6E8FEB86659FD93), r.PrefixLen, vocabSize)
				prefixes[r.PrefixID] = pfx
			}
			copy(rq.Tokens, pfx)
		}
		out[i] = rq
	}
	return out
}
