// Package fair is the multi-tenant admission-and-fairness layer that
// fronts the scheduler: weighted fair queueing across tenants (wfq.go),
// token-bucket admission control (bucket.go), and per-request SLO classes
// that map to the SLA weights feeding sched.Request.Utility.
//
// The problem it solves is isolation. TCB's §5.1 utility model already
// carries a per-request weight, but the serving queue is one global pool —
// a single tenant flooding requests starves everyone else long before the
// breaker or the queue cap react, and when shedding does kick in it is
// utility-ordered globally, so the flood's victims absorb the losses. The
// fair layer bounds each tenant's claim on three chokepoints:
//
//   - admission: a per-tenant token bucket refuses a tenant's submissions
//     beyond its provisioned rate/burst (HTTP 429 + Retry-After), before
//     they cost the queue anything;
//   - scheduling: every accepted request is stamped with a weighted
//     virtual finish time; the scheduler draws its candidates in virtual
//     time order through a bounded window, so a backlogged tenant's excess
//     waits behind other tenants' heads instead of crowding them out;
//   - shedding: when the breaker opens, eviction is per-tenant-fair — the
//     tenant most over its weighted share of the reduced queue sheds
//     first, lowest utility first within the tenant.
//
// Everything here is mechanism, not policy: tenants and classes are
// configuration (Registry, ClassSet); a server running without it puts every
// request in one virtual tenant, which makes the same mechanisms the single
// global pool.
package fair

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultTenant is the tenant identity assigned to untagged traffic.
const DefaultTenant = "default"

// TenantConfig provisions one tenant.
type TenantConfig struct {
	// Name identifies the tenant (the X-Tenant header value).
	Name string `json:"name"`
	// Weight is the tenant's WFQ share and its proportion of the shed
	// budget. Zero or negative means 1.
	Weight float64 `json:"weight"`
	// BucketRate is the admission token-bucket refill rate in request
	// tokens per second. Zero means the registry default; negative means
	// unlimited.
	BucketRate float64 `json:"bucket_rate"`
	// BucketBurst is the bucket capacity in request tokens. Zero means the
	// registry default (or the rate, whichever is larger).
	BucketBurst float64 `json:"bucket_burst"`
}

// normWeight returns the effective WFQ weight.
func (t TenantConfig) normWeight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// Registry holds the provisioned tenants plus the defaults applied to
// tenants that were never explicitly configured (open registration: an
// unknown X-Tenant is a real tenant with default provisioning, not an
// error — the fairness layer must isolate tenants nobody predicted).
type Registry struct {
	// DefaultRate and DefaultBurst provision unregistered tenants' buckets.
	// Zero rate means unlimited.
	DefaultRate  float64
	DefaultBurst float64

	tenants map[string]TenantConfig
	order   []string // registration order, for deterministic listings
}

// NewRegistry builds a registry over the explicitly provisioned tenants.
func NewRegistry(tenants ...TenantConfig) *Registry {
	r := &Registry{tenants: make(map[string]TenantConfig, len(tenants))}
	for _, t := range tenants {
		if t.Name == "" {
			t.Name = DefaultTenant
		}
		if _, dup := r.tenants[t.Name]; !dup {
			r.order = append(r.order, t.Name)
		}
		r.tenants[t.Name] = t
	}
	return r
}

// Lookup returns the tenant's config, falling back to the registry
// defaults for unregistered names. The empty name is the default tenant.
func (r *Registry) Lookup(name string) TenantConfig {
	if name == "" {
		name = DefaultTenant
	}
	if r != nil {
		if t, ok := r.tenants[name]; ok {
			if t.BucketRate == 0 {
				t.BucketRate = r.DefaultRate
			}
			if t.BucketBurst == 0 {
				t.BucketBurst = r.DefaultBurst
			}
			return t
		}
	}
	cfg := TenantConfig{Name: name, Weight: 1}
	if r != nil {
		cfg.BucketRate = r.DefaultRate
		cfg.BucketBurst = r.DefaultBurst
	}
	return cfg
}

// Weight returns the tenant's effective WFQ weight.
func (r *Registry) Weight(name string) float64 { return r.Lookup(name).normWeight() }

// Names lists the explicitly provisioned tenants in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.order...)
}

// ParseTenants parses a -tenants flag value:
//
//	name[:weight[:rate[:burst]]] , name[:weight[:rate[:burst]]] , ...
//
// e.g. "free:1:200:400,premium:4" — premium inherits the default bucket.
func ParseTenants(spec string) ([]TenantConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []TenantConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) > 4 {
			return nil, fmt.Errorf("fair: tenant %q has %d fields (max name:weight:rate:burst)", part, len(fields))
		}
		t := TenantConfig{Name: strings.TrimSpace(fields[0])}
		if t.Name == "" {
			return nil, fmt.Errorf("fair: tenant entry %q has no name", part)
		}
		var err error
		if len(fields) > 1 && fields[1] != "" {
			if t.Weight, err = strconv.ParseFloat(fields[1], 64); err != nil || t.Weight <= 0 {
				return nil, fmt.Errorf("fair: tenant %s: bad weight %q", t.Name, fields[1])
			}
		}
		if len(fields) > 2 && fields[2] != "" {
			if t.BucketRate, err = strconv.ParseFloat(fields[2], 64); err != nil || t.BucketRate < 0 {
				return nil, fmt.Errorf("fair: tenant %s: bad bucket rate %q", t.Name, fields[2])
			}
		}
		if len(fields) > 3 && fields[3] != "" {
			if t.BucketBurst, err = strconv.ParseFloat(fields[3], 64); err != nil || t.BucketBurst < 0 {
				return nil, fmt.Errorf("fair: tenant %s: bad bucket burst %q", t.Name, fields[3])
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// Class is one SLO class: a named service tier mapping to the SLA weight
// that feeds sched.Request.Utility (vₙ = wₙ/lₙ) and to the deadline a
// request gets when it does not bring its own.
type Class struct {
	Name string `json:"name"`
	// Weight multiplies the request's utility. Zero or negative means 1.
	Weight float64 `json:"weight"`
	// Deadline is the default scheduling deadline for requests of this
	// class that specify none.
	Deadline time.Duration `json:"deadline"`
}

// The built-in SLO classes. Interactive requests are worth 4 standard ones
// of the same length to the utility-maximizing scheduler and get tight
// deadlines; batch requests are background filler that only runs when it
// does not displace anything more valuable.
const (
	ClassInteractive = "interactive"
	ClassStandard    = "standard"
	ClassBatch       = "batch"
)

// ClassSet maps class names to their definitions.
type ClassSet struct {
	classes map[string]Class
	order   []string
}

// DefaultClasses returns the built-in interactive/standard/batch tiers.
func DefaultClasses() *ClassSet {
	return NewClassSet(
		Class{Name: ClassInteractive, Weight: 4, Deadline: 500 * time.Millisecond},
		Class{Name: ClassStandard, Weight: 1, Deadline: 2 * time.Second},
		Class{Name: ClassBatch, Weight: 0.25, Deadline: 10 * time.Second},
	)
}

// NewClassSet builds a class set; the first class is the default for
// unclassified requests.
func NewClassSet(classes ...Class) *ClassSet {
	s := &ClassSet{classes: make(map[string]Class, len(classes))}
	for _, c := range classes {
		if _, dup := s.classes[c.Name]; !dup {
			s.order = append(s.order, c.Name)
		}
		s.classes[c.Name] = c
	}
	return s
}

// Lookup resolves a class name; the empty name means "standard" when
// present, otherwise the first registered class. Unknown names resolve to
// a weight-1 class of that name so misconfigured clients degrade to
// standard service instead of erroring.
func (s *ClassSet) Lookup(name string) Class {
	if s == nil || len(s.order) == 0 {
		if name == "" {
			name = ClassStandard
		}
		return Class{Name: name, Weight: 1, Deadline: 2 * time.Second}
	}
	if name == "" {
		if c, ok := s.classes[ClassStandard]; ok {
			return c
		}
		return s.classes[s.order[0]]
	}
	if c, ok := s.classes[name]; ok {
		return c
	}
	return Class{Name: name, Weight: 1, Deadline: s.Lookup("").Deadline}
}

// ParseClasses parses a -slo-classes flag value:
//
//	name:weight:deadline , ...   e.g. "interactive:4:250ms,standard:1:1s,batch:0.25:5s"
func ParseClasses(spec string) (*ClassSet, error) {
	if strings.TrimSpace(spec) == "" {
		return DefaultClasses(), nil
	}
	var classes []Class
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("fair: class %q must be name:weight:deadline", part)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("fair: class %s: bad weight %q", fields[0], fields[1])
		}
		d, err := time.ParseDuration(fields[2])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("fair: class %s: bad deadline %q", fields[0], fields[2])
		}
		classes = append(classes, Class{Name: strings.TrimSpace(fields[0]), Weight: w, Deadline: d})
	}
	if len(classes) == 0 {
		return DefaultClasses(), nil
	}
	return NewClassSet(classes...), nil
}

// JainIndex computes Jain's fairness index over per-tenant allocations:
// (Σxᵢ)² / (n·Σxᵢ²). 1.0 is perfect equality; 1/n is one tenant taking
// everything. Zero-valued entries count (a starved tenant drags the index
// down — that is the point); an empty or all-zero input returns 1 (nothing
// was allocated, nobody was treated unfairly).
func JainIndex(alloc []float64) float64 {
	var sum, sumSq float64
	for _, x := range alloc {
		sum += x
		sumSq += x * x
	}
	if len(alloc) == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(alloc)) * sumSq)
}

// JainIndexMap is JainIndex over a map's values (order-independent).
func JainIndexMap[V ~int | ~int64 | ~float64](m map[string]V) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	alloc := make([]float64, 0, len(keys))
	for _, k := range keys {
		alloc = append(alloc, float64(m[k]))
	}
	return JainIndex(alloc)
}
