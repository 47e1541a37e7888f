package sim

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"accord/internal/ckpt"
	"accord/internal/workloads"
)

// ckptCases covers the config families the checkpoint layer must
// round-trip bit-identically: direct-mapped, ACCORD set-associative,
// column-associative, the full SRAM hierarchy, and the pluggable
// organizations (Banshee, Gemini, TDRAM).
func ckptCases() []Config {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = 4
		cfg.WarmupInstr = 40_000
		cfg.MeasureInstr = 40_000
		cfg.EpochInstr = 10_000
		cfg.Seed = 1
		return cfg
	}
	full := ACCORD(2)
	full.Name = "accord-hier"
	full.FullHierarchy = true
	return []Config{
		shrink(DirectMapped()),
		shrink(ACCORD(2)),
		shrink(CACache()),
		shrink(full),
		shrink(Banshee()),
		shrink(Gemini()),
		shrink(TDRAM(2)),
	}
}

// resultFingerprint renders a Result (including the metrics bundle) to
// canonical JSON so "byte-identical" is checked literally.
func resultFingerprint(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Result
		Final  any
		Series any
	}{Result: r, Final: r.Metrics.Final, Series: r.Metrics.Series})
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestSnapshotResumeBitIdentical is the differential test: an
// uninterrupted run, a snapshot-then-resume on the same instance, and a
// restore into a fresh instance must all produce byte-identical results.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	const wlName = "libquantum"
	for _, cfg := range ckptCases() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			wl := workloads.MustGet(wlName, cfg.Cores)

			cold := New(cfg, wl).Run(wlName)

			warm := New(cfg, wl)
			warm.RunWarmup()
			blob, err := warm.Snapshot(wlName)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			resumed := warm.RunMeasure(wlName)

			restoredSys := New(cfg, wl)
			if err := restoredSys.Restore(blob, wlName); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			restored := restoredSys.RunMeasure(wlName)

			coldFP := resultFingerprint(t, cold)
			if got := resultFingerprint(t, resumed); got != coldFP {
				t.Errorf("snapshot-then-resume diverged from cold run:\n cold %s\n warm %s", coldFP, got)
			}
			if got := resultFingerprint(t, restored); got != coldFP {
				t.Errorf("restore-into-fresh diverged from cold run:\n cold %s\n rest %s", coldFP, got)
			}
		})
	}
}

// TestRunWithStoreBitIdentical exercises the full store path: the first
// run populates the store cold, the second restores, and both results —
// and a no-store baseline — are byte-identical.
func TestRunWithStoreBitIdentical(t *testing.T) {
	const wlName = "milc"
	for _, cfg := range ckptCases() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			wl := workloads.MustGet(wlName, cfg.Cores)
			store, err := ckpt.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			base := New(cfg, wl).Run(wlName)
			first, info := RunWithStore(cfg, wl, store, wlName)
			if info.Restored {
				t.Fatal("first run claims to have restored from an empty store")
			}
			second, info := RunWithStore(cfg, wl, store, wlName)
			if !info.Restored {
				t.Fatal("second run did not restore from the populated store")
			}
			baseFP := resultFingerprint(t, base)
			if got := resultFingerprint(t, first); got != baseFP {
				t.Errorf("store-populating run diverged from no-store run")
			}
			if got := resultFingerprint(t, second); got != baseFP {
				t.Errorf("restored run diverged from no-store run:\n cold %s\n warm %s", baseFP, got)
			}
		})
	}
}

// TestWarmKeyExclusions verifies the digest ignores exactly the fields
// that cannot affect warm state, and changes with ones that can.
func TestWarmKeyExclusions(t *testing.T) {
	base := ckptCases()[1] // ACCORD 2-way
	wl := workloads.MustGet("libquantum", base.Cores)
	key := func(cfg Config) string {
		return New(cfg, wl).WarmKey("libquantum")
	}
	k0 := key(base)

	renamed := base
	renamed.Name = "renamed"
	if key(renamed) != k0 {
		t.Error("Name changed the warm key; it is a label and must not")
	}
	measure := base
	measure.MeasureInstr *= 2
	if key(measure) != k0 {
		t.Error("MeasureInstr changed the warm key; it is consumed after the boundary")
	}
	epoch := base
	epoch.EpochInstr = 0
	if key(epoch) != k0 {
		t.Error("EpochInstr changed the warm key; sampling starts at the boundary")
	}

	for name, mutate := range map[string]func(*Config){
		"Seed":        func(c *Config) { c.Seed = 7 },
		"WarmupInstr": func(c *Config) { c.WarmupInstr *= 2 },
		"Scale":       func(c *Config) { c.Scale *= 2 },
		"MSHRs":       func(c *Config) { c.MSHRs++ },
	} {
		cfg := base
		mutate(&cfg)
		if key(cfg) == k0 {
			t.Errorf("%s did not change the warm key; it affects warm state", name)
		}
	}

	if key(ckptCases()[0]) == k0 || key(ckptCases()[2]) == k0 {
		t.Error("different organizations share a warm key")
	}
}

// TestWarmKeyDistinguishesTableSizes pins the reason StorageBytes is in
// the fingerprint: RIT/RLT size sweeps share a policy name.
func TestWarmKeyDistinguishesTableSizes(t *testing.T) {
	shrink := func(cfg Config) Config {
		cfg.Scale = 8192
		cfg.Cores = 4
		return cfg
	}
	a := shrink(ACCORDWithTables(32))
	b := shrink(ACCORDWithTables(64))
	a.Name, b.Name = "same", "same"
	wl := workloads.MustGet("libquantum", a.Cores)
	if New(a, wl).WarmKey("libquantum") == New(b, wl).WarmKey("libquantum") {
		t.Error("different GWS table sizes share a warm key")
	}
}

// TestRestoreRejectsAdversarialInput feeds truncations and random
// corruptions of a real snapshot to Restore: every one must fail with an
// error (or be a byte-identical fluke, impossible past the checksum) and
// none may panic.
func TestRestoreRejectsAdversarialInput(t *testing.T) {
	cfg := ckptCases()[1]
	wl := workloads.MustGet("libquantum", cfg.Cores)
	s := New(cfg, wl)
	s.RunWarmup()
	blob, err := s.Snapshot("libquantum")
	if err != nil {
		t.Fatal(err)
	}

	// Truncations at every length (stride keeps the test fast; edges and
	// a dense prefix are covered exactly).
	for n := 0; n < len(blob); n += 1 + n/64 {
		tr := blob[:n]
		fresh := New(cfg, wl)
		if err := fresh.Restore(tr, "libquantum"); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(blob))
		}
	}

	// Random single-byte corruptions: the CRC catches all of them.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 64; trial++ {
		c := append([]byte(nil), blob...)
		c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
		fresh := New(cfg, wl)
		if err := fresh.Restore(c, "libquantum"); err == nil {
			t.Fatalf("trial %d: corrupted snapshot accepted", trial)
		}
	}

	// A valid snapshot for a different config/workload must be rejected
	// by the fingerprint even though the checksum passes.
	other := New(cfg, workloads.MustGet("milc", cfg.Cores))
	if err := other.Restore(blob, "milc"); err == nil {
		t.Fatal("snapshot for libquantum accepted by a milc system")
	}

	// Sanity: the pristine blob still restores.
	fresh := New(cfg, wl)
	if err := fresh.Restore(blob, "libquantum"); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// TestRestoreRejectsTrailingBytes guards the strict end-of-blob check.
func TestRestoreRejectsTrailingBytes(t *testing.T) {
	cfg := ckptCases()[0]
	wl := workloads.MustGet("libquantum", cfg.Cores)
	s := New(cfg, wl)
	s.RunWarmup()
	blob, err := s.Snapshot("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	// Re-wrap the payload with junk appended before the checksum.
	payload := blob[:len(blob)-4]
	e := ckpt.NewEncoder(len(blob) + 8)
	e.Raw(payload)
	e.U64(0xDEAD)
	fresh := New(cfg, wl)
	if err := fresh.Restore(e.Finish(), "libquantum"); err == nil {
		t.Fatal("snapshot with trailing bytes accepted")
	}
}

// TestRunWithStoreCorruptFallsBackCold corrupts the stored blob between
// runs; the second run must detect it, fall back cold, and still produce
// the identical result.
func TestRunWithStoreCorruptFallsBackCold(t *testing.T) {
	cfg := ckptCases()[1]
	wl := workloads.MustGet("libquantum", cfg.Cores)
	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := RunWithStore(cfg, wl, store, "libquantum")

	key := New(cfg, wl).WarmKey("libquantum")
	blob, ok, err := store.Load(key)
	if err != nil || !ok {
		t.Fatalf("stored blob missing: ok=%v err=%v", ok, err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := store.Save(key, blob); err != nil {
		t.Fatal(err)
	}

	got, info := RunWithStore(cfg, wl, store, "libquantum")
	if info.Restored {
		t.Error("corrupt checkpoint was reported as restored")
	}
	if !reflect.DeepEqual(base, got) {
		t.Error("cold fallback after corruption diverged from the original run")
	}

	// The fallback re-saved a good checkpoint; the next run restores.
	again, info := RunWithStore(cfg, wl, store, "libquantum")
	if !info.Restored {
		t.Error("store was not repopulated after the corrupt fallback")
	}
	if !reflect.DeepEqual(base, again) {
		t.Error("restored run after repopulation diverged")
	}
}
