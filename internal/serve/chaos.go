package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcb/internal/batch"
	"tcb/internal/engine"
	"tcb/internal/rng"
)

// ChaosRunner is a deterministic, seeded fault injector between the server
// and a real Runner: every failure path the supervision stack handles
// (errors, panics, latency spikes, lost results) can be exercised
// reproducibly — same seed, same call sequence, same faults. Wire it into
// tcb-serve with -chaos, or around a test engine directly.
//
// Mode draws happen in call order from one seeded stream, so a
// single-goroutine caller (the serve loop) sees an identical fault schedule
// run to run.
type ChaosRunner struct {
	Inner Runner
	cfg   ChaosConfig

	mu       sync.Mutex
	src      *rng.Source
	calls    int64
	injected ChaosCounts
	// stop releases wedged calls on Close so a torn-down replica's
	// abandoned engine goroutines can exit instead of leaking.
	stop      chan struct{}
	closeOnce sync.Once
}

// ChaosConfig selects fault modes for a ChaosRunner. Rates are independent
// probabilities per engine call, checked in the order: slow, panic, err, lose.
// KillAfter and WedgeAfter are deterministic call-count triggers (they draw
// no randomness, so adding them never shifts an existing seed's schedule):
// they model a whole replica dying or hanging, the faults the cluster layer
// routes around with ejection and drain/respawn.
type ChaosConfig struct {
	ErrRate   float64 // return an injected error instead of running
	PanicRate float64 // panic instead of running
	SlowRate  float64 // sleep SlowDelay before running
	LoseRate  float64 // run, then drop one request's result from the report
	SlowDelay time.Duration
	Seed      uint64

	// KillAfter, when positive, hard-kills the engine after that many
	// calls: every later call fails immediately with ErrChaosKilled. The
	// replica is crashed, not slow — its breaker opens, health probes fail,
	// and the cluster must eject it.
	KillAfter int
	// WedgeAfter, when positive, wedges the engine after that many calls:
	// every later call blocks until Close. The replica is hung — the
	// supervision watchdog (and the cluster's stall detector) territory.
	WedgeAfter int
}

// Enabled reports whether any fault mode is active.
func (c ChaosConfig) Enabled() bool {
	return c.ErrRate > 0 || c.PanicRate > 0 || c.SlowRate > 0 || c.LoseRate > 0 ||
		c.KillAfter > 0 || c.WedgeAfter > 0
}

// ChaosCounts tallies injected faults.
type ChaosCounts struct {
	Errs, Panics, Slows, Lost int64
	Kills, Wedges             int64
}

// ErrChaos is the root of every injected engine error.
var ErrChaos = errors.New("chaos: injected engine error")

// ErrChaosKilled marks calls refused because the injector's KillAfter
// trigger fired: the simulated replica is dead until it is respawned with a
// fresh runner.
var ErrChaosKilled = fmt.Errorf("%w: engine killed", ErrChaos)

// NewChaosRunner wraps inner with deterministic fault injection.
func NewChaosRunner(inner Runner, cfg ChaosConfig) *ChaosRunner {
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = 10 * time.Millisecond
	}
	return &ChaosRunner{Inner: inner, cfg: cfg, src: rng.New(cfg.Seed), stop: make(chan struct{})}
}

// Close releases every wedged call (it returns ErrChaos) and disarms the
// wedge for later calls. A cluster respawning a wedged replica calls it
// during teardown so the watchdog-abandoned engine goroutines can exit
// instead of leaking. Safe to call more than once.
func (c *ChaosRunner) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
}

// Counts returns the faults injected so far.
func (c *ChaosRunner) Counts() ChaosCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// chaosDraw is one call's fault schedule, drawn under the lock in call
// order so the same seed yields the same schedule run to run.
type chaosDraw struct {
	slow, pan, fail, lose bool
	kill, wedge           bool
}

func (c *ChaosRunner) draw() chaosDraw {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	var d chaosDraw
	// Count-based triggers first, and without touching the rng stream, so
	// killafter/wedgeafter compose with rate modes under the same seed
	// without shifting their schedule. Wedge outranks kill.
	if c.cfg.WedgeAfter > 0 && c.calls > int64(c.cfg.WedgeAfter) {
		d.wedge = true
		c.injected.Wedges++
		return d
	}
	if c.cfg.KillAfter > 0 && c.calls > int64(c.cfg.KillAfter) {
		d.kill = true
		c.injected.Kills++
		return d
	}
	d.slow = c.src.Float64() < c.cfg.SlowRate
	d.pan = c.src.Float64() < c.cfg.PanicRate
	d.fail = c.src.Float64() < c.cfg.ErrRate
	d.lose = c.src.Float64() < c.cfg.LoseRate
	if d.slow {
		c.injected.Slows++
	}
	if d.pan {
		c.injected.Panics++
	} else if d.fail {
		c.injected.Errs++
	}
	return d
}

// inject acts out the pre-run part of a draw: wedge, kill, sleep, panic or
// error. It runs outside the lock — a slow or wedged run must not serialize
// later calls.
func (c *ChaosRunner) inject(d chaosDraw, b *batch.Batch) error {
	if d.wedge {
		// Hang like a stuck kernel: the supervision watchdog abandons the
		// call, and Close (replica teardown) is what finally releases it.
		<-c.stop
		return fmt.Errorf("%w: wedged engine released by teardown", ErrChaos)
	}
	if d.kill {
		return fmt.Errorf("%w (batch of %d items)", ErrChaosKilled, b.NumItems())
	}
	if d.slow {
		time.Sleep(c.cfg.SlowDelay)
	}
	if d.pan {
		panic(fmt.Sprintf("chaos: injected panic (batch of %d items)", b.NumItems()))
	}
	if d.fail {
		return fmt.Errorf("%w (batch of %d items)", ErrChaos, b.NumItems())
	}
	return nil
}

// maybeLose drops one result from a successful report when the draw says so.
func (c *ChaosRunner) maybeLose(d chaosDraw, rep *engine.Report) *engine.Report {
	if !d.lose || rep == nil || len(rep.Results) == 0 {
		return rep
	}
	c.mu.Lock()
	drop := c.src.Intn(len(rep.Results))
	c.injected.Lost++
	c.mu.Unlock()
	trimmed := make([]engine.Result, 0, len(rep.Results)-1)
	trimmed = append(trimmed, rep.Results[:drop]...)
	trimmed = append(trimmed, rep.Results[drop+1:]...)
	clone := *rep
	clone.Results = trimmed
	return &clone
}

// Prepare forwards to the inner runner. Staging itself is never faulted
// (faults fire at execution time, like a real launch).
func (c *ChaosRunner) Prepare(b *batch.Batch, tokens map[int64][]int) (*engine.Prepared, error) {
	return c.Inner.Prepare(b, tokens)
}

// RunPreparedRefill implements Runner with fault injection: one draw per
// engine invocation, acted out before the engine starts. Injected panics are
// expected to be recovered by the SupervisedRunner above this one. Mid-run,
// the hook's early deliveries are real — the lose fault can only trim the
// final report, which the server ignores for already-delivered requests.
func (c *ChaosRunner) RunPreparedRefill(p *engine.Prepared, hook engine.RefillHook) (*engine.Report, error) {
	d := c.draw()
	if err := c.inject(d, p.Batch); err != nil {
		return nil, err
	}
	rep, err := c.Inner.RunPreparedRefill(p, hook)
	if err == nil {
		rep = c.maybeLose(d, rep)
	}
	return rep, err
}

// ParseChaos parses a -chaos flag spec of comma-separated key=value pairs:
//
//	err=0.2,panic=0.05,slow=0.1:50ms,lose=0.02,seed=7
//	killafter=20          — engine dies after 20 calls
//	wedgeafter=20         — engine hangs after 20 calls (until teardown)
//
// Rates are probabilities in [0,1]; slow takes an optional :delay suffix;
// killafter/wedgeafter are positive call counts. The empty spec parses to a
// disabled config.
func ParseChaos(spec string) (ChaosConfig, error) {
	var cfg ChaosConfig
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: malformed term %q (want key=value)", part)
		}
		switch key {
		case "err", "panic", "lose":
			rate, err := parseRate(key, val)
			if err != nil {
				return cfg, err
			}
			switch key {
			case "err":
				cfg.ErrRate = rate
			case "panic":
				cfg.PanicRate = rate
			case "lose":
				cfg.LoseRate = rate
			}
		case "slow":
			rateStr, delayStr, hasDelay := strings.Cut(val, ":")
			rate, err := parseRate(key, rateStr)
			if err != nil {
				return cfg, err
			}
			cfg.SlowRate = rate
			if hasDelay {
				d, err := time.ParseDuration(delayStr)
				if err != nil || d <= 0 {
					return cfg, fmt.Errorf("chaos: bad slow delay %q", delayStr)
				}
				cfg.SlowDelay = d
			}
		case "killafter", "wedgeafter":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("chaos: %s wants a positive call count, got %q", key, val)
			}
			if key == "killafter" {
				cfg.KillAfter = n
			} else {
				cfg.WedgeAfter = n
			}
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("chaos: bad seed %q", val)
			}
			cfg.Seed = seed
		default:
			return cfg, fmt.Errorf("chaos: unknown mode %q", key)
		}
	}
	return cfg, nil
}

func parseRate(key, val string) (float64, error) {
	rate, err := strconv.ParseFloat(val, 64)
	if err != nil || rate < 0 || rate > 1 {
		return 0, fmt.Errorf("chaos: %s rate %q not in [0,1]", key, val)
	}
	return rate, nil
}
