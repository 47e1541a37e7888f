// Command perfbench is the repository's benchmark. Each run measures one
// workload for a fixed time, in a fresh child process per repetition with
// GOMAXPROCS pinned, checks every design point's result, and prints one
// JSON line of metrics:
//
//	bash perfbench/run.sh --workload sweep-fig10 --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it additionally runs one traced repetition (spans around
// the benchmark's calls into each layer, plus a CPU profile grouped by
// package) and prints the per-layer metrics instead; the spans and the
// profile table are written under .bench_build/trace/. NOTES.md explains
// the workloads, the checks and the measured spreads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	gomaxprocs int
	// populates is how many fresh lattices set-up builds (sampled-resume
	// only); the last one is resumed, and set-up time is their median.
	populates int
}

var workloadDefs = map[string]workloadDef{
	"sweep-fig10":    {gomaxprocs: 1},
	"sampled-cold":   {gomaxprocs: 2},
	"sampled-resume": {gomaxprocs: 2, populates: 2},
}

const (
	// minReps is the fewest untraced repetitions a run makes, whatever
	// --seconds allows.
	minReps = 2
	// runLimit bounds a whole run; children still running then are killed.
	runLimit = 170 * time.Second
	buildDir = ".bench_build"
)

func main() {
	workload := flag.String("workload", "", "workload: sweep-fig10, sampled-cold or sampled-resume")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured time per run")
	trace := flag.Int("trace", 0, "1 adds a traced repetition and prints per-layer metrics")
	record := flag.Bool("record", false, "record this seed's digests into perfbench/reference.json")
	child := flag.String("child", "", "internal: run one repetition in this role")
	lattice := flag.String("lattice", "", "internal: spine lattice directory")
	profile := flag.String("profile", "", "internal: CPU profile path")
	flag.Parse()

	if *child != "" {
		err := runChild(childArgs{workload: *workload, role: *child, seed: *seed, lattice: *lattice, profile: *profile})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	def, ok := workloadDefs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	out, err := run(*workload, def, *seed, *seconds, *trace == 1, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spawner starts child repetitions of this binary.
type spawner struct {
	workload string
	def      workloadDef
	seed     int64
	deadline time.Time
}

// child runs one repetition in a fresh process and decodes its report.
func (s spawner) child(role, lattice, profile string) (rep, error) {
	if time.Now().After(s.deadline) {
		return rep{}, fmt.Errorf("run time limit reached before %s repetition", role)
	}
	self, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	cmd := exec.Command(self, "-child", role, "-workload", s.workload,
		"-seed", strconv.FormatInt(s.seed, 10), "-lattice", lattice, "-profile", profile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.def.gomaxprocs))
	cmd.Stderr = os.Stderr
	// A child must not outlive a benchmark run that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep{}, err
	}
	if err := cmd.Start(); err != nil {
		return rep{}, err
	}
	timer := time.AfterFunc(time.Until(s.deadline), func() { _ = cmd.Process.Kill() })
	var r rep
	decErr := json.NewDecoder(bufio.NewReader(stdout)).Decode(&r)
	waitErr := cmd.Wait()
	timer.Stop()
	if waitErr != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", role, waitErr)
	}
	if decErr != nil {
		return rep{}, fmt.Errorf("%s repetition report: %w", role, decErr)
	}
	return r, nil
}

// run makes one benchmark run: set-up, untraced repetitions for the
// measured time, optionally one traced repetition, then the checks.
func run(workload string, def workloadDef, seed int64, seconds float64, traced, record bool) (result, error) {
	sp := spawner{workload: workload, def: def, seed: seed, deadline: time.Now().Add(runLimit)}
	removeStaleWork()
	work, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	var setups []float64
	var populated []rep
	lattice := ""
	for i := 0; i < def.populates; i++ {
		if lattice != "" {
			if err := os.RemoveAll(lattice); err != nil {
				return result{}, err
			}
		}
		lattice = filepath.Join(work, fmt.Sprintf("lattice-%d", i))
		r, err := sp.child("populate", lattice, "")
		if err != nil {
			return result{}, err
		}
		populated = append(populated, r)
		setups = append(setups, r.SetupS+r.WallS)
	}
	var lattMiB float64
	if lattice != "" {
		lattMiB = dirMiB(lattice)
	}

	// Repeat while the next repetition, if it takes as long as the last
	// one, still ends within the measured time.
	var reps []rep
	start := time.Now()
	for last := time.Duration(0); len(reps) < minReps || time.Since(start)+last <= time.Duration(seconds*float64(time.Second)); {
		t := time.Now()
		r, err := sp.child("run", lattice, "")
		if err != nil {
			return result{}, err
		}
		last = time.Since(t)
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: wall %.3fs, set-up %.6fs\n", len(reps), r.WallS, r.SetupS)
		reps = append(reps, r)
		if def.populates == 0 {
			setups = append(setups, r.SetupS)
		}
	}

	var tracedRep *rep
	var prof profileTable
	if traced {
		dir, err := filepath.Abs(filepath.Join(buildDir, "trace", fmt.Sprintf("%s-s%d", workload, seed)))
		if err != nil {
			return result{}, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		pfile := filepath.Join(dir, "cpu.pprof")
		r, err := sp.child("traced", lattice, pfile)
		if err != nil {
			return result{}, err
		}
		tracedRep = &r
		text, err := pprofTop(pfile)
		if err != nil {
			return result{}, err
		}
		if prof, err = parseTop(text); err != nil {
			return result{}, err
		}
		if err := writeTrace(dir, r.Spans, text, prof); err != nil {
			return result{}, err
		}
	}

	out := result{Metrics: map[string]metric{}}
	errs := check(&out, workload, seed, reps, populated, tracedRep, record)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	out.Correct = out.Failed == 0 && len(errs) == 0

	col := func(f func(rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	wall := col(func(r rep) float64 { return r.WallS })
	if !traced {
		out.Metrics["wall_s"] = metric{wall, "s"}
		out.Metrics["setup_s"] = metric{median(setups), "s"}
		out.Metrics["events_per_s"] = metric{col(func(r rep) float64 { return float64(r.Events) / r.WallS }), "1/s"}
		out.Metrics["peak_rss_mib"] = metric{col(func(r rep) float64 { return r.PeakRSSMiB }), "MiB"}
		out.Metrics["alloc_mib"] = metric{col(func(r rep) float64 { return r.AllocMiB }), "MiB"}
		return out, nil
	}
	layer := perLayer(reps, populated, *tracedRep, prof, wall, lattMiB)
	for _, m := range perLayerMetrics {
		out.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	return out, nil
}

// removeStaleWork deletes the work directories (lattices of hundreds of
// MiB) that runs killed before their own cleanup left behind: those whose
// process no longer exists.
func removeStaleWork() {
	dirs, _ := filepath.Glob(filepath.Join(buildDir, "work-*"))
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(d), "work-"))
		if err == nil && syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(d)
		}
	}
}

// dirMiB sums the sizes of the regular files under dir.
func dirMiB(dir string) float64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// writeTrace writes the traced repetition's spans (with per-name self
// times) and the profile grouped by layer next to the raw pprof text.
func writeTrace(dir string, spans []span, top string, prof profileTable) error {
	names := make([]string, 0, len(prof.Layers))
	for l := range prof.Layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return prof.Layers[names[i]] > prof.Layers[names[j]] })
	table := fmt.Sprintf("%-16s %10s %8s\n", "layer", "flat_ms", "flat%")
	for _, l := range names {
		table += fmt.Sprintf("%-16s %10.1f %7.2f%%\n", l, float64(prof.Layers[l])/1e6, prof.share(prof.Layers[l]))
	}
	for _, h := range hotFuncs {
		table += fmt.Sprintf("%-16s %10.1f %7.2f%%\n", h.metric, float64(prof.Hot[h.metric])/1e6, prof.share(prof.Hot[h.metric]))
	}
	b, err := json.MarshalIndent(struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{spans, selfTimes(spans)}, "", " ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{"spans.json": b, "layers.txt": []byte(table), "pprof-top.txt": []byte(top)} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
