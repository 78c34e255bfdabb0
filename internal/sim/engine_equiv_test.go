package sim

import (
	"testing"

	"uqsim/internal/des"
)

// wrappedRunner is a des.Runner decorator of the kind Options.Engine
// exists for: it passes every call through to the engine it wraps and
// counts the callbacks that fire, the way a tracer or meter would.
type wrappedRunner struct {
	des.Runner
	fired uint64
}

func (w *wrappedRunner) wrap(fn des.Callback) des.Callback {
	return func(now des.Time) {
		w.fired++
		fn(now)
	}
}

func (w *wrappedRunner) At(t des.Time, fn des.Callback) *des.Event {
	return w.Runner.At(t, w.wrap(fn))
}

func (w *wrappedRunner) After(d des.Time, fn des.Callback) *des.Event {
	return w.Runner.After(d, w.wrap(fn))
}

func (w *wrappedRunner) Post(t des.Time, fn des.Callback) {
	w.Runner.Post(t, w.wrap(fn))
}

// engineVariants returns fresh engines the full simulation must behave
// identically on: the default engine Sim builds itself (nil), a des.Engine
// handed in through Options.Engine, and that engine behind a decorator.
// Every variant executes the same (time, seq) event order.
func engineVariants() map[string]func() des.Runner {
	return map[string]func() des.Runner{
		"default":  func() des.Runner { return nil },
		"explicit": func() des.Runner { return des.New() },
		"wrapped":  func() des.Runner { return &wrappedRunner{Runner: des.New()} },
	}
}

// TestCrossEngineFingerprintEquality: a same-seed run of a randomized
// topology — including fault injection, retries, hedges, and breakers —
// must produce an identical determinism fingerprint on every engine
// variant, and conserve requests.
func TestCrossEngineFingerprintEquality(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var baseline string
		for _, name := range []string{"default", "explicit", "wrapped"} {
			eng := engineVariants()[name]()
			s := buildRandomTopologyOn(t, seed, eng)
			withRandomFaults(t, s, seed)
			rep, err := s.Run(0, 250*des.Millisecond)
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, name, err)
			}
			total := rep.Completions + rep.Timeouts + rep.Shed + rep.Dropped +
				rep.DeadlineExpired + rep.Unreachable + uint64(rep.InFlight)
			if rep.Arrivals != total {
				t.Fatalf("seed %d on %s: conservation: arrivals %d != outcomes %d",
					seed, name, rep.Arrivals, total)
			}
			if w, ok := eng.(*wrappedRunner); ok && w.fired != s.Engine().Processed() {
				t.Fatalf("seed %d: decorator saw %d callbacks, engine processed %d",
					seed, w.fired, s.Engine().Processed())
			}
			fp := reportFingerprint(rep)
			if name == "default" {
				baseline = fp
				continue
			}
			if fp != baseline {
				t.Fatalf("seed %d: %s diverges from the default engine\n default: %s\n %s: %s",
					seed, name, baseline, name, fp)
			}
		}
	}
}

// TestCrossEngineDrain: after the horizon, a run on a decorated engine
// must settle every request with zero leaked state, exactly like one on
// the default engine.
func TestCrossEngineDrain(t *testing.T) {
	for seed := int64(20); seed <= 25; seed++ {
		s := buildRandomTopologyOn(t, seed, &wrappedRunner{Runner: des.New()})
		withRandomOverload(t, s, seed)
		rep, err := s.Run(0, 150*des.Millisecond)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s.Engine().Run() // drain past the horizon; the generator is stopped
		if err := s.VerifyDrained(); err != nil {
			t.Fatalf("seed %d: leaked state on wrapped engine: %v", seed, err)
		}
		if rep.Completions == 0 {
			t.Fatalf("seed %d: no completions", seed)
		}
	}
}
