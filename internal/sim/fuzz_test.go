package sim

import (
	"slices"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/dramcache"
	"accord/internal/workloads"
)

const fuzzWorkload = "libquantum"

// fuzzCases is one small configuration per L4 organization at one and
// two cores; the fuzz input's first argument picks among them.
func fuzzCases() []Config {
	var cases []Config
	for _, cores := range []int{1, 2} {
		for _, cfg := range parallelCases(cores, false) {
			cfg.Sampling = SamplingConfig{}
			cfg.Scale = 1 << 16
			cfg.WarmupInstr = 20_000
			cases = append(cases, cfg)
		}
	}
	return cases
}

// FuzzRestore feeds mutated snapshot payloads to Restore and
// RestoreFunctional on freshly built systems. Each input is reframed
// with a valid CRC before decoding, so mutations reach past the checksum
// into the header check and every component decoder. The property is
// the decoder contract: adversarial bytes yield an error or a successful
// restore, never a panic. Seeds are real Snapshot and FunctionalSnapshot
// blobs of every registered backend.
func FuzzRestore(f *testing.F) {
	cases := fuzzCases()
	var seeded []string
	for i, cfg := range cases {
		wl := workloads.MustGet(fuzzWorkload, cfg.Cores)
		s := New(cfg, wl)
		s.RunWarmup()
		for _, kind := range []struct {
			snap    func(string) ([]byte, error)
			restore func(*System, []byte, string) error
		}{
			{s.Snapshot, (*System).Restore},
			{s.FunctionalSnapshot, (*System).RestoreFunctional},
		} {
			blob, err := kind.snap(fuzzWorkload)
			if err != nil {
				f.Fatalf("%s: %v", cfg.Name, err)
			}
			payload := blob[:len(blob)-4] // strip the CRC; reframe restores it
			if err := kind.restore(New(cfg, wl), reframe(payload), fuzzWorkload); err != nil {
				f.Fatalf("%s: reframed seed does not restore: %v", cfg.Name, err)
			}
			f.Add(uint8(i), payload)
		}
		seeded = append(seeded, cfg.BackendName())
	}
	for _, name := range dramcache.BackendNames() {
		if !slices.Contains(seeded, name) {
			f.Fatalf("backend %q has no seed snapshot", name)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		cfg := cases[int(which)%len(cases)]
		wl := workloads.MustGet(fuzzWorkload, cfg.Cores)
		_ = New(cfg, wl).Restore(reframe(payload), fuzzWorkload)
		_ = New(cfg, wl).RestoreFunctional(reframe(payload), fuzzWorkload)
	})
}

// reframe wraps a snapshot payload in a valid CRC frame.
func reframe(payload []byte) []byte {
	e := ckpt.NewEncoder(len(payload) + 4)
	e.Raw(payload)
	return e.Finish()
}
