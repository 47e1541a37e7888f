package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"accord/internal/exp"
	"accord/internal/sim"
	"accord/internal/workloads"
)

// procStart is taken during package initialization, before main runs;
// a repetition's set-up time is measured from here.
var procStart = time.Now()

// rep is what one fresh child process reports for one repetition.
type rep struct {
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	Events     int64   `json:"events"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	AllocMiB   float64 `json:"alloc_mib"`

	// Attempted counts operations: design points, plus the rendered
	// table on the sweep and the layer checks of a traced repetition.
	// Failures maps each failed operation to why, so an operation failing
	// several checks counts once.
	Attempted int               `json:"attempted"`
	Failures  map[string]string `json:"failures,omitempty"`

	// Digests holds one SHA-256 prefix per design point in plan order
	// ("" for a point that panicked); Table digests the rendered table.
	Digests []string `json:"digests"`
	Table   string   `json:"table,omitempty"`

	// PointMS is the host time of each design point (sweep only).
	PointMS []float64 `json:"point_ms,omitempty"`

	// Layer holds per-layer values under their metric names.
	Layer map[string]float64 `json:"layer"`
	Spans []span             `json:"spans,omitempty"`
}

// fail records why operation op failed; the first reason is kept.
func (r *rep) fail(op, format string, args ...any) {
	if r.Failures == nil {
		r.Failures = map[string]string{}
	}
	if _, ok := r.Failures[op]; !ok {
		r.Failures[op] = fmt.Sprintf(format, args...)
	}
}

// pointOp names design point i as an operation.
func pointOp(i int) string { return fmt.Sprintf("point %d", i) }

// childArgs selects what one child process runs.
type childArgs struct {
	workload string
	role     string // "run", "populate" (sampled-resume set-up) or "traced"
	seed     int64
	lattice  string // lattice directory for sampled-resume and its populate role
	profile  string // CPU profile path for the traced role
}

// runChild executes one repetition and prints its rep as JSON.
func runChild(a childArgs) error {
	var r rep
	r.Layer = map[string]float64{}
	var tr *tracer
	if a.role == "traced" {
		tr = newTracer(fmt.Sprintf("%s-s%d-%d", a.workload, a.seed, os.Getpid()))
	}
	var err error
	switch a.workload {
	case "sweep-fig10":
		err = runSweep(&r, a, tr)
	case "sampled-cold", "sampled-resume":
		err = runSampled(&r, a, tr)
	default:
		err = fmt.Errorf("unknown workload %q", a.workload)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		r.Spans = tr.spans
	}
	r.PeakRSSMiB = peakRSSMiB()
	return json.NewEncoder(os.Stdout).Encode(&r)
}

// sweepParams is the sweep-fig10 session: QuickParams (1/1024 scale, 8
// cores, 400k+400k instructions per core, trace cache on), one worker.
func sweepParams(seed int64) exp.Params {
	p := exp.QuickParams()
	p.Seed = seed
	p.Parallelism = 1
	return p
}

// sampledConfig is the sampled workloads' design point: ACCORD 2-way on
// mcf at 8 cores and Scale 64, so the model's L4 state outgrows the host
// caches. TargetCI 0 runs all 64 intervals, so no speculative interval is
// ever discarded and the work does not depend on thread timing.
func sampledConfig(seed int64) sim.Config {
	cfg := sim.ACCORD(2)
	cfg.Scale = 64
	cfg.Cores = 8
	cfg.WarmupInstr = 2_000_000
	cfg.MeasureInstr = 64_000_000
	cfg.DisableAdaptiveBudgets = true
	cfg.Sampling = sim.SamplingConfig{Period: 1_000_000, DetailLen: 50_000, WarmLen: 25_000, TargetCI: 0}
	cfg.SampleWorkers = 2
	cfg.Seed = seed
	return cfg
}

const sampledWorkload = "mcf"

// paperFig10 is Figure 10's unambiguous geomean speedups, in percent over
// the direct-mapped baseline.
var paperFig10 = []struct {
	cfg sim.Config
	pct float64
}{
	{sim.Parallel(2), 2.0}, {sim.PWS(0.85), 5.6}, {sim.GWS(), 6.8}, {sim.ACCORD(2), 7.3}, {sim.PerfectWP(2), 10.2},
}

// runSweep plans fig10, runs every point through Session.Run (or, traced,
// through sim.New → RunWarmup → RunMeasure with one shared trace cache),
// then renders the table from the memo.
func runSweep(r *rep, a childArgs, tr *tracer) error {
	p := sweepParams(a.seed)
	s := exp.NewSession(p)
	e, ok := exp.Find("fig10")
	if !ok {
		return fmt.Errorf("experiment fig10 not found")
	}
	points := s.Plan(e)
	for _, pt := range points {
		if err := pt.Config.Validate(); err != nil {
			return fmt.Errorf("%s/%s: %w", pt.Config.Name, pt.Workload, err)
		}
	}
	r.SetupS = time.Since(procStart).Seconds()

	results := make([]*sim.Result, len(points))
	var tc *workloads.TraceCache
	if tr != nil {
		tc = workloads.NewTraceCache(p.TraceCacheBytes)
	}
	stop, err := startProfile(a.profile)
	if err != nil {
		return err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	root := tr.begin("exp.sweep", -1)
	for i, pt := range points {
		ps := time.Now()
		results[i] = runPoint(r, i, pt, func() sim.Result {
			if tr == nil {
				return s.Run(pt.Config, pt.Workload)
			}
			return tracedPoint(tr, root, tc, pt)
		})
		r.PointMS = append(r.PointMS, float64(time.Since(ps).Nanoseconds())/1e6)
	}
	tr.end(root)
	var table string
	var tableOK bool
	if tr == nil {
		ts := time.Now()
		table, tableOK = renderTable(r, e, s)
		r.Layer["exp.table_s"] = time.Since(ts).Seconds()
	}
	r.WallS = time.Since(t0).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	stop()

	r.AllocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.Layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.Layer["exp.points"] = float64(len(points))
	r.Attempted = len(points)
	if tr == nil {
		r.Attempted++ // the table render
		if tableOK {
			r.Table = digest([]byte(table))
		}
		r.Layer["exp.paper_gap_pp"] = paperGap(s)
	}
	_, bytes, hits, misses, _ := s.TraceCacheStats()
	if tc != nil {
		_, bytes, hits, misses, _ = tc.Stats()
	}
	r.Layer["workloads.trace_mib"] = float64(bytes) / (1 << 20)
	r.Layer["workloads.recorded_streams"] = float64(misses)
	r.Layer["workloads.replayed_streams"] = float64(hits)
	r.Digests, r.Events = summarize(r, results)
	if tr != nil {
		r.Layer["sim.new_s"] = tr.total("sim.new")
		r.Layer["sim.warmup_s"] = tr.total("sim.warmup")
		r.Layer["sim.measure_s"] = tr.total("sim.measure")
		// The representative point for the standalone layer calls.
		point := sim.ACCORD(2)
		point.Scale, point.Cores, point.WarmupInstr, point.MeasureInstr, point.Seed = p.Scale, p.Cores, p.WarmupInstr, p.MeasureInstr, p.Seed
		layerCalls(r, point, tr)
	}
	return nil
}

// tracedPoint drives one planned point through the system's public phases,
// a span around each.
func tracedPoint(tr *tracer, parent int, tc *workloads.TraceCache, pt exp.Point) sim.Result {
	sp := tr.begin("exp.point", parent)
	defer tr.end(sp)
	wl := workloads.MustGet(pt.Workload, pt.Config.Cores)
	wl.Source = tc.Source(wl.Specs, pt.Config.AnchorLines(), pt.Config.Seed)
	s := tr.begin("sim.new", sp)
	sys := sim.New(pt.Config, wl)
	tr.end(s)
	s = tr.begin("sim.warmup", sp)
	sys.RunWarmup()
	tr.end(s)
	s = tr.begin("sim.measure", sp)
	defer tr.end(s)
	return sys.RunMeasure(pt.Workload)
}

// runPoint runs design point i, counting a panic as its failure.
func runPoint(r *rep, i int, pt exp.Point, run func() sim.Result) (res *sim.Result) {
	defer func() {
		if v := recover(); v != nil {
			r.fail(pointOp(i), "%s/%s panicked: %v", pt.Config.Name, pt.Workload, v)
			res = nil
		}
	}()
	out := run()
	return &out
}

// renderTable renders fig10 from the session memo; a panic fails it.
func renderTable(r *rep, e exp.Experiment, s *exp.Session) (out string, ok bool) {
	defer func() {
		if v := recover(); v != nil {
			r.fail("table", "fig10 table panicked: %v", v)
			out, ok = "", false
		}
	}()
	var b strings.Builder
	for _, t := range e.Run(s) {
		b.WriteString(t.Render())
	}
	return b.String(), true
}

// paperGap is the mean |simulated − paper| geomean speedup over Figure
// 10's five unambiguous designs, in percentage points. Every point it
// reads is already memoized.
func paperGap(s *exp.Session) float64 {
	var sum float64
	for _, d := range paperFig10 {
		_, g := s.SuiteSpeedups(d.cfg, workloads.CoreSuite())
		sum += math.Abs(100*(g-1) - d.pct)
	}
	return sum / float64(len(paperFig10))
}

// runSampled runs the sampled design point once: cold (no lattice),
// populating a fresh lattice, or resuming every boundary from one.
func runSampled(r *rep, a childArgs, tr *tracer) error {
	cfg := sampledConfig(a.seed)
	if a.workload == "sampled-resume" {
		cfg.SpineCheckpointDir = a.lattice
		cfg.SpineStride = 1
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	wl := workloads.MustGet(sampledWorkload, cfg.Cores)
	tc := workloads.NewTraceCache(0)
	wl.Source = tc.Source(wl.Specs, cfg.AnchorLines(), cfg.Seed)
	r.SetupS = time.Since(procStart).Seconds()

	stop, err := startProfile(a.profile)
	if err != nil {
		return err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var sys *sim.System
	res := runPoint(r, 0, exp.Point{Config: cfg, Workload: sampledWorkload}, func() sim.Result {
		s := tr.begin("sim.new", -1)
		sys = sim.New(cfg, wl)
		tr.end(s)
		s = tr.begin("sim.run", -1)
		defer tr.end(s)
		return sys.Run(sampledWorkload)
	})
	r.WallS = time.Since(t0).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	stop()

	r.PointMS = []float64{1000 * r.WallS}
	r.Attempted = 1
	r.AllocMiB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.Layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.Layer["exp.points"] = 1
	_, bytes, hits, misses, _ := tc.Stats()
	r.Layer["workloads.trace_mib"] = float64(bytes) / (1 << 20)
	r.Layer["workloads.recorded_streams"] = float64(misses)
	r.Layer["workloads.replayed_streams"] = float64(hits)
	r.Digests, r.Events = summarize(r, []*sim.Result{res})
	if res == nil {
		return nil
	}
	w := sys.SampleWork()
	r.Layer["sampling.spine_s"] = w.SpineTime.Seconds()
	r.Layer["sampling.detail_s"] = w.DetailTime.Seconds()
	if w.WallTime > 0 && w.Workers > 0 {
		r.Layer["sampling.worker_busy_pct"] = 100 * w.DetailTime.Seconds() / (w.WallTime.Seconds() * float64(w.Workers))
	}
	r.Layer["sampling.dispatched"] = float64(w.Dispatched)
	r.Layer["sampling.discarded"] = float64(w.Discarded)
	r.Layer["ckpt.lattice_hits"] = float64(w.LatticeHits)
	r.Layer["ckpt.lattice_misses"] = float64(w.LatticeMisses)
	r.Layer["ckpt.save_s"] = w.SpineSaveTime.Seconds()
	if w.Discarded != 0 {
		r.fail(pointOp(0), "sampling discarded %d intervals, want 0", w.Discarded)
	}
	if a.workload == "sampled-resume" {
		if a.role == "populate" && w.LatticeMisses != w.Dispatched {
			r.fail(pointOp(0), "populate: %d lattice misses for %d dispatched intervals; the lattice was not fresh", w.LatticeMisses, w.Dispatched)
		}
		if a.role != "populate" && w.LatticeHits != w.Dispatched {
			r.fail(pointOp(0), "resume: %d lattice hits for %d dispatched intervals", w.LatticeHits, w.Dispatched)
		}
	}
	if tr != nil {
		r.Layer["sim.new_s"] = tr.total("sim.new")
		r.Layer["sim.run_s"] = tr.total("sim.run")
		layerCalls(r, sampledConfig(a.seed), tr)
	}
	return nil
}

// layerCalls times the standalone layer calls of a traced run on one
// representative design point: a functional snapshot and its restore
// (which must reproduce the snapshot byte for byte), and one core's
// stream generated while recording, then replayed.
func layerCalls(r *rep, cfg sim.Config, tr *tracer) {
	r.Attempted += 2
	wl := workloads.MustGet(sampledWorkload, cfg.Cores)
	cfg.SpineCheckpointDir = ""
	sys := sim.New(cfg, wl)
	sys.RunWarmupFunctional()
	s := tr.begin("ckpt.snapshot", -1)
	blob, err := sys.FunctionalSnapshot(sampledWorkload)
	tr.end(s)
	if err != nil {
		r.fail("snapshot", "FunctionalSnapshot: %v", err)
		return
	}
	fresh := sim.New(cfg, workloads.MustGet(sampledWorkload, cfg.Cores))
	s = tr.begin("ckpt.restore", -1)
	err = fresh.RestoreFunctional(blob, sampledWorkload)
	tr.end(s)
	if err != nil {
		r.fail("snapshot", "RestoreFunctional: %v", err)
		return
	}
	if again, err := fresh.FunctionalSnapshot(sampledWorkload); err != nil || !bytes.Equal(again, blob) {
		r.fail("snapshot", "restored snapshot differs from the original (err %v)", err)
	}
	r.Layer["ckpt.snapshot_ms"] = 1000 * tr.total("ckpt.snapshot")
	r.Layer["ckpt.restore_ms"] = 1000 * tr.total("ckpt.restore")
	r.Layer["ckpt.blob_mib"] = float64(len(blob)) / (1 << 20)

	const events = 4 << 20
	tc := workloads.NewTraceCache(0)
	seed := workloads.StreamSeed(cfg.Seed, 0)
	var ev workloads.Event
	var sums [2]uint64
	for i, name := range []string{"workloads.record", "workloads.replay"} {
		cur := tc.Stream(wl.Specs[0], cfg.AnchorLines(), cfg.Cores, seed)
		s := tr.begin(name, -1)
		for n := 0; n < events; n++ {
			cur.Next(&ev)
			sums[i] = sums[i]*31 + uint64(ev.Line) + uint64(ev.Gap)
		}
		tr.end(s)
		r.Layer[name+"_ns_per_event"] = 1e9 * tr.total(name) / events
	}
	if sums[0] != sums[1] {
		r.fail("trace replay", "trace replay diverged from the recording")
	}
}

// summarize digests each result and sums the simulated counts over the
// points that completed.
func summarize(r *rep, results []*sim.Result) (digests []string, events int64) {
	var c struct {
		mshrStalls, l4Reads, l4Hits, probes, preds, correct uint64
		hbmReads, hbmWrites, hbmRowHits, hbmRowMisses       uint64
		pcmReads, pcmWrites                                 uint64
	}
	for i, res := range results {
		if res == nil {
			digests = append(digests, "")
			continue
		}
		b, err := json.Marshal(res)
		if err != nil {
			r.fail(pointOp(i), "%s/%s: result does not encode: %v", res.Config, res.Workload, err)
			digests = append(digests, "")
			continue
		}
		digests = append(digests, digest(b))
		events += res.Events
		if res.Metrics != nil {
			c.mshrStalls += res.Metrics.Final.Counter("cpu.mshr_stalls")
		}
		c.l4Reads += res.L4.Reads
		c.l4Hits += res.L4.ReadHits
		c.probes += res.L4.ProbeReads
		c.preds += res.L4.Predictions
		c.correct += res.L4.Correct
		c.hbmReads += res.HBM.Reads
		c.hbmWrites += res.HBM.Writes
		c.hbmRowHits += res.HBM.RowHits
		c.hbmRowMisses += res.HBM.RowMisses
		c.pcmReads += res.PCM.Reads
		c.pcmWrites += res.PCM.Writes
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	r.Layer["cpu.events"] = float64(events)
	r.Layer["cpu.mshr_stalls"] = float64(c.mshrStalls)
	r.Layer["l4.reads"] = float64(c.l4Reads)
	r.Layer["l4.probe_reads"] = float64(c.probes)
	r.Layer["l4.hit_rate_pct"] = ratio(c.l4Hits, c.l4Reads)
	r.Layer["l4.prediction_accuracy_pct"] = ratio(c.correct, c.preds)
	r.Layer["hbm.reads"] = float64(c.hbmReads)
	r.Layer["hbm.writes"] = float64(c.hbmWrites)
	r.Layer["hbm.row_hit_rate_pct"] = ratio(c.hbmRowHits, c.hbmRowHits+c.hbmRowMisses)
	r.Layer["pcm.reads"] = float64(c.pcmReads)
	r.Layer["pcm.writes"] = float64(c.pcmWrites)
	return digests, events
}

// digest is a short content hash: 16 hex digits of SHA-256.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// startProfile starts the CPU profile of a traced repetition; the returned
// function stops it. Untraced repetitions (empty path) get a no-op.
func startProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
