package workload

import (
	"fmt"
	"math"

	"tcb/internal/rng"
	"tcb/internal/sched"
)

// LengthDist draws request lengths. The paper's §6 uses a truncated
// normal; its motivation (§1) points at corpora whose lengths are "highly
// variable" (ParaCrawl, GLUE's DIA), which the other distributions here
// model synthetically.
type LengthDist interface {
	// Sample returns a length in [min, max].
	Sample(src *rng.Source) int
	// Name identifies the distribution in experiment output.
	Name() string
}

// NormalLengths is the §6.2.1 distribution: truncated N(mean, variance).
type NormalLengths struct {
	Mean, Variance float64
	Min, Max       int
}

// Sample implements LengthDist.
func (d NormalLengths) Sample(src *rng.Source) int {
	return src.TruncatedNormalInt(d.Mean, math.Sqrt(d.Variance), d.Min, d.Max)
}

// Name implements LengthDist.
func (d NormalLengths) Name() string {
	return fmt.Sprintf("normal(μ=%g,σ²=%g)", d.Mean, d.Variance)
}

// BimodalLengths mixes two truncated normals — the chat-vs-paragraph mix
// translation services see: mostly short requests with a heavy cluster of
// long ones. TurboBatching's similar-length grouping handles each mode,
// but the modes force either separate small launches or huge padding.
type BimodalLengths struct {
	Low, High    NormalLengths
	HighFraction float64 // probability of drawing from High
}

// Sample implements LengthDist.
func (d BimodalLengths) Sample(src *rng.Source) int {
	if src.Float64() < d.HighFraction {
		return d.High.Sample(src)
	}
	return d.Low.Sample(src)
}

// Name implements LengthDist.
func (d BimodalLengths) Name() string {
	return fmt.Sprintf("bimodal(%g@%s,%s)", d.HighFraction, d.High.Name(), d.Low.Name())
}

// LogNormalLengths is a heavy-tailed distribution (web-scraped corpora):
// exp(N(mu, sigma²)) clamped to [Min, Max].
type LogNormalLengths struct {
	Mu, Sigma float64
	Min, Max  int
}

// Sample implements LengthDist.
func (d LogNormalLengths) Sample(src *rng.Source) int {
	v := int(math.Round(math.Exp(src.Normal(d.Mu, d.Sigma))))
	if v < d.Min {
		return d.Min
	}
	if v > d.Max {
		return d.Max
	}
	return v
}

// Name implements LengthDist.
func (d LogNormalLengths) Name() string {
	return fmt.Sprintf("lognormal(μ=%g,σ=%g)", d.Mu, d.Sigma)
}

// GenerateWithDist is Generate with an arbitrary length distribution.
// spec's MeanLen/VarLen are ignored; its Min/Max still bound (clamp) the
// samples so downstream capacity checks hold.
func GenerateWithDist(spec Spec, dist LengthDist) ([]*sched.Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if dist == nil {
		return nil, fmt.Errorf("workload: nil length distribution")
	}
	src := rng.New(spec.Seed)
	psrc := spec.prefixSource()
	var out []*sched.Request
	now := 0.0
	id := int64(1)
	for {
		now += src.Exp(spec.Rate)
		if now >= spec.Duration {
			break
		}
		ln := dist.Sample(src)
		if ln < spec.MinLen {
			ln = spec.MinLen
		}
		if ln > spec.MaxLen {
			ln = spec.MaxLen
		}
		off := spec.DeadlineMin + src.Float64()*(spec.DeadlineMax-spec.DeadlineMin)
		r := &sched.Request{
			ID:       id,
			Arrival:  now,
			Deadline: now + off,
			Len:      ln,
			Tenant:   spec.Tenant,
		}
		spec.applyPrefix(psrc, r)
		out = append(out, r)
		id++
	}
	return out, nil
}
