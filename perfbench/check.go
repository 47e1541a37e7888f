package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// reference.json holds, per workload family and seed, the digest of every
// design point's Result in plan order and of the rendered fig10 table.
// sampled-cold and sampled-resume run the same design point and share the
// "sampled" family, so a resumed run is held to the cold run's reference.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Points []string `json:"points"`
	Table  string   `json:"table,omitempty"`
}

type references map[string]map[string]reference

func family(workload string) string {
	if workload == "sweep-fig10" {
		return workload
	}
	return "sampled"
}

// check holds each design point's digest to the recorded reference for
// this seed or, for a seed with none, to the first cold repetition (the
// first populating run on sampled-resume): every repetition must
// reproduce it exactly, the resumed ones and the traced one included.
// It fills in out's attempted and failed operations and returns every
// failure, for the log.
func check(out *result, workload string, seed int64, reps, populated []rep, traced *rep, record bool) []string {
	all := append(append([]rep(nil), populated...), reps...)
	if traced != nil {
		all = append(all, *traced)
	}
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return []string{fmt.Sprintf("reference.json: %v", err)}
	}
	want, have := refs[family(workload)][strconv.FormatInt(seed, 10)]
	if !have {
		want = reference{Points: all[0].Digests, Table: reps[0].Table}
		fmt.Fprintf(os.Stderr, "perfbench: no reference digests for seed %d; repetitions are checked against each other\n", seed)
	}
	var errs []string
	for n := range all {
		r := &all[n]
		for i := 0; i < len(want.Points) || i < len(r.Digests); i++ {
			switch {
			case i >= len(r.Digests):
				r.fail(pointOp(i), "no result")
			case i >= len(want.Points):
				r.fail(pointOp(i), "unexpected result %s", r.Digests[i])
			case r.Digests[i] != want.Points[i]:
				r.fail(pointOp(i), "digest %q, want %s", r.Digests[i], want.Points[i])
			}
		}
		if r.Table != "" && r.Table != want.Table {
			r.fail("table", "fig10 table digest %s, want %s", r.Table, want.Table)
		}
		out.Attempted += r.Attempted
		out.Failed += len(r.Failures)
		for op, why := range r.Failures {
			errs = append(errs, fmt.Sprintf("repetition %d, %s: %s", n, op, why))
		}
	}
	sort.Strings(errs)
	if record && len(errs) == 0 {
		if refs[family(workload)] == nil {
			refs[family(workload)] = map[string]reference{}
		}
		refs[family(workload)][strconv.FormatInt(seed, 10)] = reference{Points: all[0].Digests, Table: reps[0].Table}
		if err := writeReferences(refs); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return errs
}

func writeReferences(refs references) error {
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "reference.json"), append(b, '\n'), 0o644)
}

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct{ name, unit, better string }

// perLayerMetrics is every metric a traced run prints, in BENCHMARK.json's
// order. A metric that does not apply to the workload (interactions.json
// says where each applies) or a percentile refused for too few samples
// prints as 0.
var perLayerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, l := range layers {
		ms = append(ms, layerMetric{l + ".self_pct", "%", "lower"})
	}
	for _, h := range hotFuncs {
		ms = append(ms, layerMetric{h.metric + ".self_pct", "%", "lower"})
	}
	return append(ms, []layerMetric{
		{"cpu.ns_per_event", "ns", "lower"},
		{"dramcache.ns_per_read", "ns", "lower"},
		{"dram.ns_per_op", "ns", "lower"},
		{"sim.new_s", "s", "lower"},
		{"sim.warmup_s", "s", "lower"},
		{"sim.measure_s", "s", "lower"},
		{"sim.run_s", "s", "lower"},
		{"exp.points", "count", "higher"},
		{"exp.table_s", "s", "lower"},
		{"exp.point_ms_p50", "ms", "lower"},
		{"exp.point_ms_p90", "ms", "lower"},
		{"exp.paper_gap_pp", "pp", "lower"},
		{"ckpt.snapshot_ms", "ms", "lower"},
		{"ckpt.restore_ms", "ms", "lower"},
		{"ckpt.blob_mib", "MiB", "lower"},
		{"workloads.record_ns_per_event", "ns", "lower"},
		{"workloads.replay_ns_per_event", "ns", "lower"},
		{"sampling.spine_s", "s", "lower"},
		{"sampling.detail_s", "s", "lower"},
		{"sampling.worker_busy_pct", "%", "higher"},
		{"sampling.dispatched", "count", "lower"},
		{"sampling.discarded", "count", "lower"},
		{"ckpt.lattice_hits", "count", "higher"},
		{"ckpt.lattice_misses", "count", "lower"},
		{"ckpt.save_s", "s", "lower"},
		{"ckpt.lattice_mib", "MiB", "lower"},
		{"workloads.trace_mib", "MiB", "lower"},
		{"workloads.recorded_streams", "count", "lower"},
		{"workloads.replayed_streams", "count", "higher"},
		{"runtime.gc_cycles", "count", "lower"},
		{"cpu.events", "count", "higher"},
		{"cpu.mshr_stalls", "count", "lower"},
		{"l4.reads", "count", "higher"},
		{"l4.probe_reads", "count", "lower"},
		{"l4.hit_rate_pct", "%", "higher"},
		{"l4.prediction_accuracy_pct", "%", "higher"},
		{"hbm.reads", "count", "lower"},
		{"hbm.writes", "count", "lower"},
		{"hbm.row_hit_rate_pct", "%", "higher"},
		{"pcm.reads", "count", "lower"},
		{"pcm.writes", "count", "lower"},
		{"tracing.overhead_pct", "%", "lower"},
	}...)
}()

// perLayer assembles the per-layer metrics: counters as the median over
// the untraced repetitions, spans and standalone layer calls from the
// traced repetition, profile shares and per-operation host times from its
// profile, and the lattice's set-up figures from the populating runs.
func perLayer(reps, populated []rep, tr rep, prof profileTable, wall, latticeMiB float64) map[string]float64 {
	m := map[string]float64{}
	keys := map[string]bool{}
	for _, r := range reps {
		for k := range r.Layer {
			keys[k] = true
		}
	}
	for k := range keys {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.Layer[k]
		}
		m[k] = median(xs)
	}
	for k, v := range tr.Layer {
		if !keys[k] {
			m[k] = v
		}
	}
	if len(populated) > 0 {
		xs := make([]float64, len(populated))
		for i, r := range populated {
			xs[i] = r.Layer["ckpt.save_s"]
		}
		m["ckpt.save_s"] = median(xs)
	}
	m["ckpt.lattice_mib"] = latticeMiB

	for _, q := range []struct {
		name string
		q    float64
	}{{"exp.point_ms_p50", 0.5}, {"exp.point_ms_p90", 0.9}} {
		var xs []float64
		for _, r := range reps {
			v, err := percentile(r.PointMS, q.q)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s refused: %v\n", q.name, err)
				xs = nil
				break
			}
			xs = append(xs, v)
		}
		m[q.name] = median(xs)
	}

	for _, l := range layers {
		m[l+".self_pct"] = prof.share(prof.Layers[l])
	}
	for _, h := range hotFuncs {
		m[h.metric+".self_pct"] = prof.share(prof.Hot[h.metric])
	}
	perOp := func(layer string, count float64) float64 {
		if count == 0 {
			return 0
		}
		return float64(prof.Layers[layer]) / count
	}
	c := tr.Layer
	m["cpu.ns_per_event"] = perOp("cpu", c["cpu.events"])
	m["dramcache.ns_per_read"] = perOp("dramcache", c["l4.reads"])
	m["dram.ns_per_op"] = perOp("dram", c["hbm.reads"]+c["hbm.writes"]+c["pcm.reads"]+c["pcm.writes"])
	if wall > 0 {
		m["tracing.overhead_pct"] = 100 * (tr.WallS/wall - 1)
	}
	return m
}
