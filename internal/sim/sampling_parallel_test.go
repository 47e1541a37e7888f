package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"accord/internal/dramcache"
	"accord/internal/workloads"
)

// backendFilterSkip honors ACCORD_BACKEND the same way the dramcache
// conformance suite does: set, it narrows a per-backend matrix to one
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

// parallelCases spans every L4 organization across the equivalence
// matrix the parallel sampler must honor: single- and multi-core,
// early-stop on and off. Small scale keeps the full matrix fast.
func parallelCases(cores int, earlyStop bool) []Config {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = cores
		cfg.DisableAdaptiveBudgets = true
		cfg.WarmupInstr = 50_000
		cfg.MeasureInstr = 300_000
		cfg.Seed = 1
		cfg.Sampling = SamplingConfig{
			Period:       50_000,
			DetailLen:    12_000,
			WarmLen:      5_000,
			MinIntervals: 2,
		}
		if earlyStop {
			// ±50% converges after two or three intervals, leaving planned
			// intervals undispatched and speculative results to discard.
			cfg.Sampling.TargetCI = 0.5
		}
		return cfg
	}
	return []Config{
		shrink(DirectMapped()),
		shrink(ACCORD(2)),
		shrink(CACache()),
		shrink(Banshee()),
		shrink(Gemini()),
		shrink(TDRAM(2)),
	}
}

// traceWorkload wraps wlName in a fresh trace cache so forks replay the
// exact event stream the spine consumes (the configuration exp runs).
func traceWorkload(wlName string, cfg Config) workloads.Workload {
	gen := workloads.MustGet(wlName, cfg.Cores)
	tc := workloads.NewTraceCache(1 << 30)
	wl := gen
	wl.Source = tc.Source(gen.Specs, cfg.AnchorLines(), cfg.Seed)
	return wl
}

// runSampledWorkers runs one sampled simulation at the given worker
// count and returns the Result, its JSON encoding, and the final
// functional state of the system.
func runSampledWorkers(t *testing.T, cfg Config, wl workloads.Workload, wlName string, workers int) (Result, []byte, []byte, SampleWork) {
	t.Helper()
	c := cfg
	c.SampleWorkers = workers
	s := New(c, wl)
	res := s.Run(wlName)
	js, err := json.MarshalIndent(res.Metrics, "", " ")
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	state, err := s.FunctionalSnapshot(wlName)
	if err != nil {
		t.Fatalf("final FunctionalSnapshot: %v", err)
	}
	return res, js, state, s.SampleWork()
}

// runSampledInPlace is the single-core reference the sampling driver is
// checked against: the SMARTS loop with every interval's detailed legs
// run on the live system, each functional advance continuing from
// wherever the previous legs ended. For one core that trajectory is
// byte-equivalent to the driver's fork protocol (DESIGN.md §9):
// functional and detailed execution of the same events leave identical
// functional state, and absolute leg targets make both consume the same
// events. It shares no code with the spine, the worker pool, or the
// lattice; finishSampled canonicalizes its final state from the last
// boundary snapshot of the in-place trajectory.
func runSampledInPlace(t *testing.T, cfg Config, wl workloads.Workload, wlName string) (Result, []byte, []byte) {
	t.Helper()
	s := New(cfg, wl)
	sc := cfg.Sampling
	st := newSampleState(sc, int(cfg.MeasureInstr/sc.Period), 1, wlName)
	c := s.cores[0]
	s.RunWarmupFunctional()
	next := []int64{c.Instructions() + sc.Period - sc.WarmLen - sc.DetailLen}
	for k := 0; ; k++ {
		s.advanceFunctional(next)
		s.resetIntervalState()
		blob, err := s.FunctionalSnapshot(wlName)
		if err != nil {
			t.Fatalf("boundary snapshot: %v", err)
		}
		next[0] = c.Instructions() + sc.Period
		r := s.measureInterval(sc)
		r.index, r.blob = k, blob
		if st.commit(r) {
			break
		}
	}
	res := s.finishSampled(st, wlName)
	js, err := json.MarshalIndent(res.Metrics, "", " ")
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	state, err := s.FunctionalSnapshot(wlName)
	if err != nil {
		t.Fatalf("final FunctionalSnapshot: %v", err)
	}
	return res, js, state
}

// TestSampledParallelMatchesSequential is the tentpole equivalence gate:
// for every L4 organization, single- and multi-core, with and without
// early stopping, the sampling driver must reproduce its reference
// exactly — same Result (summary, per-interval series, stats, registry
// snapshot), same exported metrics JSON, and byte-identical final
// functional state — at every worker count. Single-core runs are held to
// the in-place oracle above; multi-core runs, whose functional and
// detailed interleavings differ, to the driver at one worker. Run it
// under -race to also prove the fork protocol shares no state it
// shouldn't; the per-backend CI jobs narrow it with ACCORD_BACKEND.
func TestSampledParallelMatchesSequential(t *testing.T) {
	const wlName = "libquantum"
	for _, cores := range []int{1, 2} {
		for _, earlyStop := range []bool{false, true} {
			for _, cfg := range parallelCases(cores, earlyStop) {
				if backendFilterSkip(t, cfg.BackendName()) {
					continue
				}
				cfg := cfg
				name := fmt.Sprintf("%s-%dc-stop=%t", cfg.Name, cores, earlyStop)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					wl := traceWorkload(wlName, cfg)
					workers := []int{1, 2, 3}
					var refRes Result
					var refJS, refState []byte
					if cores == 1 {
						refRes, refJS, refState = runSampledInPlace(t, cfg, wl, wlName)
					} else {
						refRes, refJS, refState, _ = runSampledWorkers(t, cfg, wl, wlName, 1)
						workers = workers[1:]
					}
					for _, w := range workers {
						res, js, state, work := runSampledWorkers(t, cfg, wl, wlName, w)
						if work.Workers != w {
							t.Fatalf("SampleWorkers=%d resolved %d workers", w, work.Workers)
						}
						if !reflect.DeepEqual(refRes, res) {
							t.Errorf("workers=%d: Result diverged from the reference\nref sampled: %+v\ngot sampled: %+v",
								w, refRes.Sampled, res.Sampled)
						}
						if !bytes.Equal(refJS, js) {
							t.Errorf("workers=%d: exported metrics JSON diverged from the reference", w)
						}
						if !bytes.Equal(refState, state) {
							t.Errorf("workers=%d: final functional state diverged from the reference (%d vs %d bytes)",
								w, len(refState), len(state))
						}
						if work.Committed != refRes.Sampled.Intervals {
							t.Errorf("workers=%d: committed %d intervals, summary says %d",
								w, work.Committed, refRes.Sampled.Intervals)
						}
						if work.Discarded != work.Dispatched-work.Committed {
							t.Errorf("workers=%d: speculation accounting broken: %+v", w, work)
						}
					}
				})
			}
		}
	}
}

// TestSampledParallelGeneratorWorkload covers the non-trace path: forks
// rebuild generator streams from the workload spec and restore their
// cursors from the functional snapshot. One config suffices — the
// stream-restore machinery is shared across organizations.
func TestSampledParallelGeneratorWorkload(t *testing.T) {
	cfg := parallelCases(2, false)[1] // accord-2way
	wl := workloads.MustGet("milc", cfg.Cores)
	seqRes, seqJS, seqState, _ := runSampledWorkers(t, cfg, wl, "milc", 1)
	parRes, parJS, parState, _ := runSampledWorkers(t, cfg, wl, "milc", 3)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("generator workload: Result diverged between 1 and 3 workers")
	}
	if !bytes.Equal(seqJS, parJS) {
		t.Errorf("generator workload: exported metrics JSON diverged")
	}
	if !bytes.Equal(seqState, parState) {
		t.Errorf("generator workload: final functional state diverged")
	}
}

// TestSampledPooledForkReset proves a pooled fork System is fully reset
// between intervals: a run whose workers rebuild a fresh fork for every
// job must match a run that reuses one fork across all of them. Any
// state RestoreFunctional + the interval reset miss would surface as a
// divergence here. Mutates the global test hook, so no t.Parallel.
func TestSampledPooledForkReset(t *testing.T) {
	const wlName = "libquantum"
	for _, cfg := range []Config{parallelCases(2, false)[1], parallelCases(2, true)[5]} {
		wl := traceWorkload(wlName, cfg)
		pooledRes, pooledJS, pooledState, _ := runSampledWorkers(t, cfg, wl, wlName, 3)

		forceFreshForkSystems = true
		freshRes, freshJS, freshState, _ := runSampledWorkers(t, cfg, wl, wlName, 3)
		forceFreshForkSystems = false

		if !reflect.DeepEqual(pooledRes, freshRes) {
			t.Errorf("%s: pooled-fork Result diverged from fresh-fork", cfg.Name)
		}
		if !bytes.Equal(pooledJS, freshJS) {
			t.Errorf("%s: pooled-fork metrics JSON diverged from fresh-fork", cfg.Name)
		}
		if !bytes.Equal(pooledState, freshState) {
			t.Errorf("%s: pooled-fork final state diverged from fresh-fork", cfg.Name)
		}
	}
}

// TestSampledParallelNoGoroutineLeak checks that early-stopped parallel
// runs wind down completely: spine, workers, and closer all exit even
// when most planned intervals are cancelled.
func TestSampledParallelNoGoroutineLeak(t *testing.T) {
	cfg := parallelCases(1, true)[0]
	cfg.MeasureInstr = 1_500_000 // 30 planned intervals, ~2 committed
	wl := traceWorkload("libquantum", cfg)

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		runSampledWorkers(t, cfg, wl, "libquantum", 4)
	}
	var after int
	for try := 0; try < 50; try++ {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after early-stopped parallel runs", before, after)
}

// TestSampleWorkersResolution pins the worker-count policy: 0 means
// GOMAXPROCS, and the count is capped by planned intervals.
func TestSampleWorkersResolution(t *testing.T) {
	cfg := parallelCases(1, false)[0] // 6 planned intervals
	wl := traceWorkload("libquantum", cfg)

	_, _, _, work := runSampledWorkers(t, cfg, wl, "libquantum", 0)
	want := runtime.GOMAXPROCS(0)
	if want > 6 {
		want = 6
	}
	if work.Workers != want {
		t.Errorf("SampleWorkers=0 resolved to %d workers, want %d (GOMAXPROCS capped at planned)", work.Workers, want)
	}

	_, _, _, work = runSampledWorkers(t, cfg, wl, "libquantum", 64)
	if work.Workers != 6 {
		t.Errorf("SampleWorkers=64 resolved to %d workers, want planned cap 6", work.Workers)
	}
}

// TestSampledTraceWorkloadWorkerInvariant runs a multi-core sampled
// replay of a trace file's events — the workload accordsim -trace
// builds — and requires the same Result, metrics JSON, and final
// functional state at every worker count: every fork replays the trace
// from its own fresh streams, restored to the spine's positions.
func TestSampledTraceWorkloadWorkerInvariant(t *testing.T) {
	cfg := parallelCases(2, true)[1] // accord-2way, early stop
	gen := workloads.MustGet("gcc", cfg.Cores)
	st := workloads.NewStream(gen.Specs[0], cfg.AnchorLines(), cfg.Cores, 1)
	events := make([]workloads.Event, 20000)
	for i := range events {
		st.Next(&events[i])
	}
	wl, err := workloads.TraceWorkload("gcc-trace", events, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	refRes, refJS, refState, _ := runSampledWorkers(t, cfg, wl, wl.Name, 1)
	if refRes.Sampled == nil || refRes.Sampled.Intervals == 0 {
		t.Fatalf("trace replay produced no intervals")
	}
	for _, workers := range []int{2, 3} {
		res, js, state, work := runSampledWorkers(t, cfg, wl, wl.Name, workers)
		if work.Workers != workers {
			t.Errorf("workers=%d: trace workload resolved %d workers", workers, work.Workers)
		}
		if !reflect.DeepEqual(refRes, res) || !bytes.Equal(refJS, js) || !bytes.Equal(refState, state) {
			t.Errorf("workers=%d: trace replay diverged from the one-worker run", workers)
		}
	}
}

// noCkptStream is a Stream without snapshot support, like an
// out-of-tree stream implementation.
type noCkptStream struct{}

func (noCkptStream) Next(ev *workloads.Event) { *ev = workloads.Event{Gap: 10, Line: 1} }

// TestRunSampledRejectsNonForkable pins that a system whose functional
// state cannot snapshot is refused up front: RunSampled panics on the
// caller's goroutine — recoverable here, which a panic on the spine or a
// worker would not be — naming the cause.
func TestRunSampledRejectsNonForkable(t *testing.T) {
	cfg := parallelCases(1, false)[0]
	wl := workloads.MustGet("libquantum", cfg.Cores)
	wl.Source = func(int) workloads.Stream { return noCkptStream{} }
	s := New(cfg, wl)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "cannot snapshot its functional state") {
			t.Errorf("RunSampled panic = %q, want the snapshot-support message", msg)
		}
	}()
	s.Run("libquantum")
}
