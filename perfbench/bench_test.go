package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"accord/internal/exp"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{1, 0.5, 0},
		{19, 0.5, 0},   // rank 10, 9 beyond
		{20, 0.5, 10},  // rank 10, 10 beyond
		{99, 0.9, 0},   // rank 90, 9 beyond
		{100, 0.9, 90}, // rank 90, 10 beyond
		{210, 0.9, 189},
		{210, 0.5, 105},
	} {
		got, err := percentile(ramp(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("percentile(n=%d, q=%g) = %g, want refusal", c.n, c.q, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g", c.n, c.q, got, err, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestParseTopGroupsByLayer(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "pprof-top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	if p.Total != 2840*ms {
		t.Errorf("total %v, want 2.84s", p.Total)
	}
	for layer, want := range map[string]time.Duration{
		"dram": 1200 * ms, "workloads": 530 * ms, "sha256": 320 * ms, "syscall": 140 * ms,
		"dramcache": 200 * ms, "crc32": 100 * ms, "runtime": 100 * ms, "sim": 120 * ms,
		"ckpt": 130 * ms, "cpu": 0,
	} {
		if got := p.Layers[layer]; got != want {
			t.Errorf("layer %s: %v, want %v", layer, got, want)
		}
	}
	for fn, want := range map[string]time.Duration{
		"dram.Access": 1200 * ms, "dramcache.findWay": 200 * ms, "sim.advanceUntil": 60 * ms, "cpu.StepRun": 0,
	} {
		if got := p.Hot[fn]; got != want {
			t.Errorf("hot %s: %v, want %v", fn, got, want)
		}
	}
	if s := p.share(p.Layers["dram"]); s < 42.25 || s > 42.26 {
		t.Errorf("dram share %.3f%%, want 42.25%%", s)
	}
	if _, err := parseTop("Showing nodes accounting for 0, 0% of 0 total\n"); err == nil {
		t.Error("parseTop accepted text without samples")
	}
}

// TestWorkloadConfigsValidate checks every design point each workload
// runs against sim.Config.Validate, at both reference seeds.
func TestWorkloadConfigsValidate(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		s := exp.NewSession(sweepParams(seed))
		e, ok := exp.Find("fig10")
		if !ok {
			t.Fatal("fig10 not found")
		}
		points := s.Plan(e)
		if len(points) != 210 {
			t.Errorf("fig10 plans %d points, want 210", len(points))
		}
		for _, p := range points {
			if err := p.Config.Validate(); err != nil {
				t.Errorf("sweep-fig10 %s/%s: %v", p.Config.Name, p.Workload, err)
			}
		}
		cold := sampledConfig(seed)
		resume := cold
		resume.SpineCheckpointDir, resume.SpineStride = t.TempDir(), 1
		for name, cfg := range map[string]interface{ Validate() error }{"sampled-cold": cold, "sampled-resume": resume} {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if n := cold.MeasureInstr / cold.Sampling.Period; n != 64 || cold.Sampling.TargetCI != 0 {
			t.Errorf("sampled point plans %d intervals with TargetCI %g; want all 64, no early stop", n, cold.Sampling.TargetCI)
		}
	}
}

// TestBenchmarkFilesAgree holds BENCHMARK.json, interactions.json and
// the code to one list of workloads and per-layer metrics.
func TestBenchmarkFilesAgree(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &bench)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadDefs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json lists %v; the code defines %d workloads", names, len(workloadDefs))
	}
	if len(bench.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code prints %d", len(bench.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if b := bench.PerLayer[i]; b.Name != m.name || b.Unit != m.unit || b.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, b, m)
		}
	}
	var inter struct {
		PerLayer map[string]struct {
			Moves      *string
			On         *string
			NoChangeOn *string `json:"no_change_on"`
			Applies    []string
		} `json:"per_layer"`
	}
	readJSON(t, "interactions.json", &inter)
	for _, m := range perLayerMetrics {
		e, ok := inter.PerLayer[m.name]
		if !ok {
			t.Errorf("interactions.json has no entry for %s", m.name)
			continue
		}
		ws := append([]string(nil), e.Applies...)
		if e.On != nil {
			ws = append(ws, *e.On)
		}
		if e.NoChangeOn != nil {
			ws = append(ws, *e.NoChangeOn)
		}
		for _, w := range ws {
			if _, ok := workloadDefs[w]; !ok {
				t.Errorf("interactions.json %s names unknown workload %q", m.name, w)
			}
		}
	}
	if len(inter.PerLayer) != len(perLayerMetrics) {
		t.Errorf("interactions.json has %d entries, want %d", len(inter.PerLayer), len(perLayerMetrics))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
