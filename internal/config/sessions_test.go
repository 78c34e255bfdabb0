package config

import (
	"math"
	"strings"
	"testing"

	"uqsim/internal/validate"
)

// sessionsDoc is a minimal valid sessions block against the two-tier
// config, whose single tree is named "get".
func sessionsDoc() map[string]any {
	return map[string]any{
		"users": 40.0,
		"journeys": []any{
			map[string]any{
				"name":   "browse",
				"weight": 3.0,
				"steps": []any{
					map[string]any{"tree": "get", "think": map[string]any{"type": "exponential", "mean_us": 500.0}},
					map[string]any{"tree": "get"},
				},
			},
			map[string]any{
				"name":  "buy",
				"steps": []any{map[string]any{"tree": "get"}},
			},
		},
	}
}

// withSessions swaps the two-tier client's open loop for a sessions block,
// applying extra client.json mutations on top.
func withSessions(t *testing.T, extra func(map[string]any)) (*Setup, error) {
	t.Helper()
	return mutateSetup(t, map[string]func(map[string]any){
		"client.json": func(m map[string]any) {
			delete(m, "qps")
			m["sessions"] = sessionsDoc()
			m["duration_s"] = 0.3
			m["warmup_s"] = 0.05
			if extra != nil {
				extra(m)
			}
		},
	})
}

func TestSessionsAssembleAndRun(t *testing.T) {
	setup, err := withSessions(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals == 0 || rep.Completions == 0 {
		t.Fatalf("session client produced no traffic: %+v", rep)
	}
	if err := validate.Conservation(rep); err != nil {
		t.Fatal(err)
	}
}

func TestSessionsUnknownTreeSuggests(t *testing.T) {
	_, err := withSessions(t, func(m map[string]any) {
		j := m["sessions"].(map[string]any)["journeys"].([]any)[0].(map[string]any)
		j["steps"].([]any)[0].(map[string]any)["tree"] = "gets"
	})
	if err == nil || !strings.Contains(err.Error(), `did you mean "get"`) {
		t.Fatalf("want did-you-mean for unknown tree, got %v", err)
	}
}

func TestSessionsExclusivity(t *testing.T) {
	if _, err := withSessions(t, func(m map[string]any) {
		m["closed_users"] = 8.0
	}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("sessions+closed_users: got %v", err)
	}
	if _, err := withSessions(t, func(m map[string]any) {
		m["qps"] = 100.0
	}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("sessions+qps: got %v", err)
	}
}

func TestSessionsValidationSurfaces(t *testing.T) {
	if _, err := withSessions(t, func(m map[string]any) {
		m["sessions"].(map[string]any)["journeys"] = []any{}
	}); err == nil || !strings.Contains(err.Error(), "at least one journey") {
		t.Fatalf("empty journeys: got %v", err)
	}
}

func TestFidelityConfig(t *testing.T) {
	// sample_rate without hybrid is rejected.
	if _, err := mutateSetup(t, map[string]func(map[string]any){
		"client.json": func(m map[string]any) { m["sample_rate"] = 0.1 },
	}); err == nil || !strings.Contains(err.Error(), `requires fidelity "hybrid"`) {
		t.Fatalf("bare sample_rate: got %v", err)
	}
	// Misspelled fidelity gets a suggestion.
	if _, err := mutateSetup(t, map[string]func(map[string]any){
		"client.json": func(m map[string]any) { m["fidelity"] = "hybird" },
	}); err == nil || !strings.Contains(err.Error(), `did you mean "hybrid"`) {
		t.Fatalf("misspelled fidelity: got %v", err)
	}
	// Out-of-range sample rate is rejected at load time.
	if _, err := mutateSetup(t, map[string]func(map[string]any){
		"client.json": func(m map[string]any) {
			m["fidelity"] = "hybrid"
			m["sample_rate"] = 1.5
		},
	}); err == nil || !strings.Contains(err.Error(), "sample rate") {
		t.Fatalf("bad sample rate: got %v", err)
	}
}

// TestHybridConfigRun drives a hybrid-fidelity run end to end through the
// config layer: the fluid tier must carry background traffic and both
// conservation identities must hold.
func TestHybridConfigRun(t *testing.T) {
	setup, err := mutateSetup(t, map[string]func(map[string]any){
		"client.json": func(m map[string]any) {
			m["fidelity"] = "hybrid"
			m["sample_rate"] = 0.1
			m["duration_s"] = 0.5
			m["warmup_s"] = 0.1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampleRate != 0.1 {
		t.Fatalf("report sample rate %v, want 0.1", rep.SampleRate)
	}
	if rep.BackgroundArrivals == 0 {
		t.Fatal("hybrid run accrued no background traffic")
	}
	if rep.Arrivals == 0 {
		t.Fatal("hybrid run sampled no foreground traffic")
	}
	// Foreground is thinned to ~10%: it must be well below the full rate.
	if rep.Arrivals >= rep.BackgroundArrivals {
		t.Fatalf("foreground %d >= background %d at sample rate 0.1",
			rep.Arrivals, rep.BackgroundArrivals)
	}
	if err := validate.Conservation(rep); err != nil {
		t.Fatal(err)
	}
}

// TestSetQPSReplacesSessions: the constant-load override (uqsim -qps,
// uqsim-trace -qps, sweep rows) turns a session config into an open loop
// at the requested rate.
func TestSetQPSReplacesSessions(t *testing.T) {
	setup, err := withSessions(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	const qps = 5000.0
	setup.SetQPS(qps)
	if setup.Sim.Client().Sessions != nil {
		t.Fatal("SetQPS left the sessions client installed")
	}
	rep, err := setup.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.OfferedQPS-qps)/qps > 0.05 {
		t.Fatalf("offered %.0f QPS, want within 5%% of %.0f", rep.OfferedQPS, qps)
	}
}
