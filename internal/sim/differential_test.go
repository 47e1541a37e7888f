package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"accord/internal/dramcache"
	"accord/internal/workloads"
)

// backendFilterSkip honors ACCORD_BACKEND the same way the dramcache
// conformance suite does: set, it narrows the differential matrix to one
// backend so the per-backend CI jobs split the -race cost.
func backendFilterSkip(t *testing.T, backend string) bool {
	t.Helper()
	only := os.Getenv("ACCORD_BACKEND")
	if only == "" {
		return false
	}
	if !dramcache.HasBackend(only) {
		t.Fatalf("ACCORD_BACKEND=%q is not a registered backend (have %v)",
			only, dramcache.BackendNames())
	}
	return backend != only
}

// engineCases is the differential matrix: every registered L4
// organization (so every specialized adapter in dispatch.go plus the
// generic fallback they must match), single- and multi-core, exact and
// sampled execution. Small scale keeps the 20-cell matrix fast.
func engineCases() []struct {
	name string
	cfg  Config
} {
	shrink := func(name string, cfg Config) struct {
		name string
		cfg  Config
	} {
		cfg.Scale = 8192
		cfg.DisableAdaptiveBudgets = true
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 300_000
		cfg.Seed = 1
		return struct {
			name string
			cfg  Config
		}{name, cfg}
	}
	return []struct {
		name string
		cfg  Config
	}{
		shrink("nway", ACCORD(2)),
		shrink("ca", CACache()),
		shrink("banshee", Banshee()),
		shrink("gemini", Gemini()),
		shrink("tdram", TDRAM(2)),
	}
}

// runEngine runs one simulation on the requested engine and returns the
// Result, the exported metrics JSON, and a state snapshot (warm-state
// snapshot for exact runs, functional snapshot for sampled runs, taken
// after the run so it covers the final simulated state).
func runEngine(t *testing.T, cfg Config, generic, sampled bool) (Result, []byte, []byte) {
	t.Helper()
	forceGenericAdapter = generic
	defer func() { forceGenericAdapter = false }()
	const wlName = "libquantum"
	wl := workloads.MustGet(wlName, cfg.Cores)
	if sampled {
		// Trace-backed stream so sampling forks replay the spine's events,
		// exactly as the experiment driver runs sampled configs.
		wl = traceWorkload(wlName, cfg)
	}
	s := New(cfg, wl)
	res := s.Run(wlName)
	js, err := json.MarshalIndent(res.Metrics, "", " ")
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	var snap []byte
	if sampled {
		snap, err = s.FunctionalSnapshot(wlName)
	} else {
		snap, err = s.Snapshot(wlName)
	}
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return res, js, snap
}

// TestEngineDifferential is the contract gate for the monomorphized
// dispatch: for every backend, single- and multi-core, exact and
// sampled, the specialized engine must reproduce the generic
// interface-dispatch engine exactly — same Result (summary, stats,
// registry snapshot, interval series), same exported metrics JSON, and
// byte-identical state snapshot. Engine choice is pure execution
// strategy; any divergence here is a specialization bug, never a
// tolerable drift. The per-backend CI conformance matrix runs this
// under -race with ACCORD_BACKEND narrowing (see backendFilter).
func TestEngineDifferential(t *testing.T) {
	for _, bc := range engineCases() {
		if backendFilterSkip(t, bc.name) {
			continue
		}
		for _, cores := range []int{1, 2} {
			for _, sampled := range []bool{false, true} {
				cfg := bc.cfg
				cfg.Cores = cores
				if sampled {
					cfg.Sampling = SamplingConfig{
						Period:       50_000,
						DetailLen:    12_000,
						WarmLen:      5_000,
						MinIntervals: 2,
					}
					cfg.SampleWorkers = 2
				}
				mode := "exact"
				if sampled {
					mode = "sampled"
				}
				t.Run(fmt.Sprintf("%s/cores=%d/%s", bc.name, cores, mode), func(t *testing.T) {
					specRes, specJSON, specSnap := runEngine(t, cfg, false, sampled)
					genRes, genJSON, genSnap := runEngine(t, cfg, true, sampled)
					if !reflect.DeepEqual(specRes, genRes) {
						t.Errorf("Result diverged between engines:\nspecialized: %+v\ngeneric:     %+v", specRes, genRes)
					}
					if !bytes.Equal(specJSON, genJSON) {
						t.Errorf("metrics JSON diverged between engines:\nspecialized: %s\ngeneric:     %s", specJSON, genJSON)
					}
					if !bytes.Equal(specSnap, genSnap) {
						t.Errorf("state snapshot diverged between engines (%d vs %d bytes)", len(specSnap), len(genSnap))
					}
				})
			}
		}
	}
}

// TestDispatchSpecializes pins that newMemAdapter actually specializes
// every registered backend — if a new organization lands without an
// adapter it silently falls back to interface dispatch, which is
// correct but defeats the engine; this test turns that into a loud
// failure listing the unspecialized type.
func TestDispatchSpecializes(t *testing.T) {
	for _, bc := range engineCases() {
		cfg := bc.cfg
		cfg.Cores = 1
		s := New(cfg, workloads.MustGet("libquantum", cfg.Cores))
		m := newMemAdapter(s.l4)
		if _, isGeneric := m.(memAdapter); isGeneric {
			t.Errorf("%s: newMemAdapter fell back to the generic engine for %T", bc.name, s.l4)
		}
		forceGenericAdapter = true
		m = newMemAdapter(s.l4)
		forceGenericAdapter = false
		if _, isGeneric := m.(memAdapter); !isGeneric {
			t.Errorf("%s: forceGenericAdapter did not force the generic engine (got %T)", bc.name, m)
		}
	}
}
