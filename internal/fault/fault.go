// Package fault is a deterministic, seeded fault-injection framework for
// exercising the stack's failure paths: named fault points compiled into
// the production code fire injected errors, latency, or panics according
// to rules armed at runtime (gps-serve -faults, the GPS_FAULTS
// environment variable, or fault.Arm in tests).
//
// # Gating
//
// Disarmed — the default — a fault point costs one atomic load and a
// predicted-not-taken branch:
//
//	if fault.Enabled() {
//		if err := fault.Hit(fault.CheckpointFsync); err != nil {
//			return err
//		}
//	}
//
// # Determinism
//
// Every rule draws its firing decisions from a private RNG seeded from
// the root seed and the rule's point name, and counts its own hits. A
// fixed (seed, spec) therefore fires at exactly the same hit indices on
// every run — the chaos harness relies on this to replay fault schedules
// — as long as the per-point hit order itself is deterministic (single
// producer, sequential requests). Concurrent hits at one point interleave
// their counter increments, which is still safe, just not replayable.
//
// # Kinds
//
// Three kinds cover the failure modes the stack must survive:
//
//   - error: Hit returns an injected error. Sites that cannot return an
//     error (ring publish) ignore it — arm latency or panic there instead.
//   - latency: Hit sleeps for the configured delay, then continues with
//     the remaining rules.
//   - panic: Hit panics with a *fault.Panic carrying the point name. The
//     engine's shard supervisor recognizes and recovers it like any other
//     shard panic.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/randx"
)

// Kind is the failure mode a rule injects.
type Kind int

const (
	// KindError makes Hit return an injected error.
	KindError Kind = iota
	// KindLatency makes Hit sleep for the rule's delay.
	KindLatency
	// KindPanic makes Hit panic with a *Panic.
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	default:
		return "panic"
	}
}

// Well-known fault point names. Sites reference these constants; specs
// name them literally (e.g. -faults "checkpoint.fsync:error:times=2").
const (
	// CheckpointWrite fires after the checkpoint payload is written to the
	// temporary file, before fsync — a disk-full / I/O error stand-in.
	CheckpointWrite = "checkpoint.write"
	// CheckpointFsync fires at the temporary file's fsync.
	CheckpointFsync = "checkpoint.fsync"
	// CheckpointRename fires at the rename that publishes a checkpoint
	// (both the atomic-write rename and serve's final-name rename).
	CheckpointRename = "checkpoint.rename"
	// StreamDecode fires at the head of the edge-stream readers (text and
	// binary), before any record is parsed.
	StreamDecode = "stream.decode"
	// RingPublish fires in the producer-side ring append. Error rules are
	// ignored here (the append cannot fail); use latency or panic.
	RingPublish = "engine.ring.publish"
	// ShardDrain fires at the top of a shard consumer's span callback,
	// before the span touches the sampler — a panic here exercises the
	// supervisor's exact-restore path.
	ShardDrain = "engine.shard.drain"
	// HTTPRequest fires in the serve middleware before every handler; an
	// error rule turns into a 503 with Retry-After.
	HTTPRequest = "serve.http"
	// IngestAck fires after an ingest batch is enqueued (and its sequence
	// number recorded) but before the 202 is written — the lost-ack case
	// an at-least-once client must survive without double-counting.
	IngestAck = "serve.ingest.ack"
	// SnapshotRefresh fires inside the snapshot cache's refresh, between
	// the engine snapshot and installing the result — latency here
	// exercises the forced-fresh deadline / degraded-serve path.
	SnapshotRefresh = "serve.snapshot"
)

// Rule is one armed injection: at the named point, after skipping After
// hits, fire with probability Prob at most Times times.
type Rule struct {
	Point string
	Kind  Kind
	// Prob is the per-hit firing probability once After is exhausted;
	// 0 means 1 (always fire).
	Prob float64
	// After skips the first After hits at the point.
	After uint64
	// Times bounds how often the rule fires; 0 means unlimited.
	Times uint64
	// Delay is the sleep duration for KindLatency rules.
	Delay time.Duration
	// Msg overrides the injected error / panic message.
	Msg string
}

// Panic is the value injected by KindPanic rules, so recovery code can
// distinguish an injected panic from a real one.
type Panic struct {
	Point string
	Msg   string
}

func (p *Panic) String() string {
	return fmt.Sprintf("fault: injected panic at %s: %s", p.Point, p.Msg)
}

// Error is the error type injected by KindError rules.
type Error struct {
	Point string
	Msg   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s: %s", e.Point, e.Msg)
}

// IsInjected reports whether err is (or wraps) an injected fault error.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// armedRule is a Rule plus its runtime state.
type armedRule struct {
	Rule
	hits  atomic.Uint64
	fired atomic.Uint64

	// rngMu guards rng for probabilistic rules; taken only when the rule
	// actually needs a draw (Prob < 1), never on the pass-through path.
	rngMu sync.Mutex
	rng   *randx.RNG
}

// registry is the immutable armed-rule table, swapped atomically by
// Arm/Disarm; Hit reads it lock-free.
type registry struct {
	byPoint map[string][]*armedRule
	rules   []*armedRule // arm order, for Status
}

var (
	armed atomic.Bool
	reg   atomic.Pointer[registry]
)

// Enabled gates every fault point. Disarmed it is a single atomic load
// returning false, so production hot paths pay one predicted branch.
func Enabled() bool { return armed.Load() }

// Arm installs the given rules (replacing any previously armed set) with
// firing decisions derived from seed. An empty rule set disarms.
func Arm(seed uint64, rules []Rule) {
	if len(rules) == 0 {
		Disarm()
		return
	}
	r := &registry{byPoint: make(map[string][]*armedRule)}
	for i, rule := range rules {
		if rule.Prob <= 0 || rule.Prob > 1 {
			rule.Prob = 1
		}
		if rule.Msg == "" {
			rule.Msg = "injected " + rule.Kind.String()
		}
		ar := &armedRule{Rule: rule}
		// Seed each rule from (root seed, point, arm index) so a fixed
		// spec fires identically across runs and rules on one point don't
		// share draws.
		h := randx.Mix64(seed ^ hashString(rule.Point) ^ randx.Mix64(uint64(i)+1))
		ar.rng = randx.New(h)
		r.byPoint[rule.Point] = append(r.byPoint[rule.Point], ar)
		r.rules = append(r.rules, ar)
	}
	reg.Store(r)
	armed.Store(true)
}

// Disarm removes every armed rule; fault points return to no-ops.
func Disarm() {
	armed.Store(false)
	reg.Store(nil)
}

// hashString is FNV-1a, good enough to decorrelate per-point seeds.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Hit evaluates the armed rules at the named point: latency rules sleep,
// panic rules panic with a *Panic, and the first error rule that fires is
// returned. Call sites gate on Enabled() so the disarmed cost is one
// atomic load at the gate, not a map lookup here.
func Hit(point string) error {
	r := reg.Load()
	if r == nil {
		return nil
	}
	rules := r.byPoint[point]
	if len(rules) == 0 {
		return nil
	}
	var injected error
	for _, ar := range rules {
		n := ar.hits.Add(1)
		if n <= ar.After {
			continue
		}
		if ar.Times > 0 && ar.fired.Load() >= ar.Times {
			continue
		}
		if ar.Prob < 1 {
			ar.rngMu.Lock()
			fire := ar.rng.Bernoulli(ar.Prob)
			ar.rngMu.Unlock()
			if !fire {
				continue
			}
		}
		if ar.Times > 0 && ar.fired.Add(1) > ar.Times {
			continue // lost a race for the last firing slot
		} else if ar.Times == 0 {
			ar.fired.Add(1)
		}
		switch ar.Kind {
		case KindLatency:
			time.Sleep(ar.Delay)
		case KindPanic:
			panic(&Panic{Point: ar.Point, Msg: ar.Msg})
		default:
			if injected == nil {
				injected = &Error{Point: ar.Point, Msg: ar.Msg}
			}
		}
	}
	return injected
}

// PointStatus is the observable state of one armed rule, for the
// fault_points field of /v1/stats and test assertions.
type PointStatus struct {
	Point string `json:"point"`
	Kind  string `json:"kind"`
	Hits  uint64 `json:"hits"`
	Fired uint64 `json:"fired"`
}

// Status reports every armed rule with its hit/fired counters, sorted by
// point name (arm order within a point). It returns nil when disarmed.
func Status() []PointStatus {
	r := reg.Load()
	if r == nil {
		return nil
	}
	out := make([]PointStatus, 0, len(r.rules))
	for _, ar := range r.rules {
		out = append(out, PointStatus{
			Point: ar.Point,
			Kind:  ar.Kind.String(),
			Hits:  ar.hits.Load(),
			Fired: ar.fired.Load(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// ParseSpec parses a fault specification: rules separated by ";", each
//
//	point:kind[:key=val[,key=val...]]
//
// with kind one of error, latency, panic, and parameters p (firing
// probability in (0,1]), after (hits to skip), times (max firings, 0 =
// unlimited), delay (Go duration, latency only), msg (message text; no
// commas). Examples:
//
//	checkpoint.fsync:error:times=2
//	serve.ingest.ack:error:p=0.4
//	engine.shard.drain:panic:after=3,times=1
//	engine.ring.publish:latency:delay=2ms,p=0.01
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.SplitN(raw, ":", 3)
		if len(parts) < 2 || parts[0] == "" {
			return nil, fmt.Errorf("fault: bad rule %q (want point:kind[:params])", raw)
		}
		rule := Rule{Point: parts[0]}
		switch parts[1] {
		case "error":
			rule.Kind = KindError
		case "latency":
			rule.Kind = KindLatency
		case "panic":
			rule.Kind = KindPanic
		default:
			return nil, fmt.Errorf("fault: bad kind %q in rule %q (want error, latency or panic)", parts[1], raw)
		}
		if len(parts) == 3 {
			for _, kv := range strings.Split(parts[2], ",") {
				kv = strings.TrimSpace(kv)
				if kv == "" {
					continue
				}
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("fault: bad parameter %q in rule %q (want key=value)", kv, raw)
				}
				switch k {
				case "p":
					if _, err := fmt.Sscanf(v, "%g", &rule.Prob); err != nil || rule.Prob <= 0 || rule.Prob > 1 {
						return nil, fmt.Errorf("fault: bad p=%q in rule %q (want a probability in (0,1])", v, raw)
					}
				case "after":
					if _, err := fmt.Sscanf(v, "%d", &rule.After); err != nil {
						return nil, fmt.Errorf("fault: bad after=%q in rule %q", v, raw)
					}
				case "times":
					if _, err := fmt.Sscanf(v, "%d", &rule.Times); err != nil {
						return nil, fmt.Errorf("fault: bad times=%q in rule %q", v, raw)
					}
				case "delay":
					d, err := time.ParseDuration(v)
					if err != nil || d < 0 {
						return nil, fmt.Errorf("fault: bad delay=%q in rule %q (want a Go duration)", v, raw)
					}
					rule.Delay = d
				case "msg":
					rule.Msg = v
				default:
					return nil, fmt.Errorf("fault: unknown parameter %q in rule %q", k, raw)
				}
			}
		}
		if rule.Kind == KindLatency && rule.Delay <= 0 {
			return nil, fmt.Errorf("fault: latency rule %q needs delay=<duration>", raw)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}
