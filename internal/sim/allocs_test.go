package sim

import (
	"testing"

	"accord/internal/workloads"
)

// TestDetailedWindowZeroAlloc enforces the steady-state allocation
// contract of the detailed measured-window path for every L4
// organization: once a system is warm, advancing it through detailed
// events — the batched StepRun loop over the windowed stream, the MSHR
// admit scan, the DRAM calendar-ring reservations — must allocate
// nothing per event.
func TestDetailedWindowZeroAlloc(t *testing.T) {
	for _, cfg := range parallelCases(1, false) {
		cfg.Sampling = SamplingConfig{}
		t.Run(cfg.Name, func(t *testing.T) {
			wl := workloads.MustGet("libquantum", cfg.Cores)
			s := New(cfg, wl)
			s.RunWarmupFunctional()
			// One detailed advance off the measurement to fault in lazy
			// state (stream window buffers, row activations).
			target := s.Cores()[0].Instructions()
			target += 20_000
			s.advanceUntil([]int64{target})
			if avg := testing.AllocsPerRun(20, func() {
				target += 10_000
				s.advanceUntil([]int64{target})
			}); avg != 0 {
				t.Errorf("detailed window allocates %.4f per 10k-instr advance, want 0", avg)
			}
		})
	}
}
