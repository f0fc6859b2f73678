package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// arm installs rules for the duration of the test and disarms afterwards.
func arm(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	Arm(seed, rules)
	t.Cleanup(Disarm)
}

func TestDisarmedIsNoop(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("Enabled() true while disarmed")
	}
	if err := Hit("checkpoint.fsync"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
	if Status() != nil {
		t.Fatal("disarmed Status() should be nil")
	}
}

func TestErrorTimesAndAfter(t *testing.T) {
	arm(t, 1, "checkpoint.fsync:error:after=2,times=3,msg=boom")
	if !Enabled() {
		t.Fatal("Enabled() false after Arm")
	}
	var fired int
	for i := 0; i < 10; i++ {
		err := Hit("checkpoint.fsync")
		switch {
		case i < 2 || i >= 5:
			if err != nil {
				t.Fatalf("hit %d: unexpected error %v", i, err)
			}
		default:
			if err == nil {
				t.Fatalf("hit %d: expected injected error", i)
			}
			if !IsInjected(err) {
				t.Fatalf("hit %d: IsInjected false for %v", i, err)
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Point != "checkpoint.fsync" || fe.Msg != "boom" {
				t.Fatalf("hit %d: wrong error contents: %#v", i, err)
			}
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	st := Status()
	if len(st) != 1 || st[0].Hits != 10 || st[0].Fired != 3 {
		t.Fatalf("Status() = %+v, want 1 rule with hits=10 fired=3", st)
	}
	// Other points are untouched.
	if err := Hit("serve.http"); err != nil {
		t.Fatalf("unrelated point returned %v", err)
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		arm(t, seed, "p:error:p=0.3")
		out := make([]bool, 200)
		for i := range out {
			out[i] = Hit("p") != nil
		}
		Disarm()
		return out
	}
	a, b := run(7), run(7)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("p=0.3 over 200 hits fired %d times — far from expectation", fires)
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical firing schedules")
	}
}

func TestLatency(t *testing.T) {
	arm(t, 1, "slow:latency:delay=30ms,times=1")
	start := time.Now()
	if err := Hit("slow"); err != nil {
		t.Fatalf("latency rule returned error %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency hit took %v, want >= ~30ms", d)
	}
	start = time.Now()
	_ = Hit("slow") // times=1 exhausted
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("exhausted latency rule still slept %v", d)
	}
}

func TestPanicKind(t *testing.T) {
	arm(t, 1, "boom:panic:times=1,msg=kapow")
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = Hit("boom")
	}()
	p, ok := recovered.(*Panic)
	if !ok {
		t.Fatalf("recovered %#v, want *fault.Panic", recovered)
	}
	if p.Point != "boom" || p.Msg != "kapow" {
		t.Fatalf("panic contents: %+v", p)
	}
	if err := Hit("boom"); err != nil {
		t.Fatalf("times=1 panic rule fired twice (got %v)", err)
	}
}

func TestMultipleRulesOnePoint(t *testing.T) {
	arm(t, 1, "x:latency:delay=1ms,times=1;x:error:times=1")
	start := time.Now()
	err := Hit("x")
	if err == nil {
		t.Fatal("expected error from second rule")
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency rule did not sleep")
	}
	if err := Hit("x"); err != nil {
		t.Fatalf("both rules exhausted, got %v", err)
	}
}

func TestConcurrentHits(t *testing.T) {
	arm(t, 1, "c:error:times=5")
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Hit("c") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 5 {
		t.Fatalf("times=5 fired %d under concurrency", fired)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"noseparator",
		":error",
		"x:explode",
		"x:error:p=2",
		"x:error:p=0",
		"x:error:after=nope",
		"x:error:times=-",
		"x:latency:delay=fast",
		"x:latency", // latency needs delay
		"x:error:color=red",
		"x:error:msg",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", spec)
		}
	}
}

func TestParseSpecGrammar(t *testing.T) {
	rules, err := ParseSpec(" checkpoint.fsync:error:times=2 ; engine.shard.drain:panic:after=3,times=1 ;; serve.http:error:p=0.25,msg=try later ")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	if rules[0].Point != "checkpoint.fsync" || rules[0].Kind != KindError || rules[0].Times != 2 {
		t.Fatalf("rule 0: %+v", rules[0])
	}
	if rules[1].Kind != KindPanic || rules[1].After != 3 || rules[1].Times != 1 {
		t.Fatalf("rule 1: %+v", rules[1])
	}
	if rules[2].Prob != 0.25 || rules[2].Msg != "try later" {
		t.Fatalf("rule 2: %+v", rules[2])
	}
	if !strings.Contains((&Error{Point: "x", Msg: "y"}).Error(), "injected error at x") {
		t.Fatal("Error message shape changed")
	}
}

func TestRearmReplaces(t *testing.T) {
	arm(t, 1, "a:error")
	if Hit("a") == nil {
		t.Fatal("first arm not active")
	}
	Arm(1, mustParse(t, "b:error"))
	if Hit("a") != nil {
		t.Fatal("old rule survived re-arm")
	}
	if Hit("b") == nil {
		t.Fatal("new rule not active")
	}
	Arm(1, nil)
	if Enabled() {
		t.Fatal("Arm with no rules should disarm")
	}
}

func mustParse(t *testing.T, spec string) []Rule {
	t.Helper()
	rules, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}
