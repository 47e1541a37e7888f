package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// layers are the repository's modules the profile shares are grouped into,
// plus the Go runtime. The stdlib extras carry the lattice-resume costs
// (digests, checksums, file reads) that the module packages only call.
var layers = []string{
	"exp", "sim", "cpu", "core", "dramcache", "dram", "vm", "workloads", "xrand", "ckpt", "runtime",
	"sha256", "crc32", "syscall",
}

// hotFuncs are single functions reported beside their package, keyed by
// metric prefix: package path and method name (receiver type ignored, so
// every organization's findWay counts).
var hotFuncs = []struct{ metric, pkg, fn string }{
	{"sim.advanceUntil", "accord/internal/sim", "advanceUntil"},
	{"dramcache.findWay", "accord/internal/dramcache", "findWay"},
	{"dram.Access", "accord/internal/dram", "Access"},
	{"cpu.StepRun", "accord/internal/cpu", "StepRun"},
}

// profileTable is a CPU profile's flat time grouped by layer and by hot
// function, parsed from `go tool pprof -top` text.
type profileTable struct {
	Total  time.Duration            // all samples
	Layers map[string]time.Duration // flat time per layer; unlisted packages under their own last path element
	Hot    map[string]time.Duration // flat time per hotFuncs metric
}

// share returns d as a percentage of the profile's total.
func (p profileTable) share(d time.Duration) float64 {
	if p.Total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(p.Total)
}

// pprofTop runs the go tool's pprof over a CPU profile and returns its
// -top text with every node listed.
func pprofTop(profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -top %s: %w", profile, err)
	}
	return string(out), nil
}

// parseTop parses `go tool pprof -top` text. The total comes from the
// "Showing nodes accounting for X, P% of T total" header line; each row is
// "flat flat% sum% cum cum% function".
func parseTop(text string) (profileTable, error) {
	p := profileTable{Layers: map[string]time.Duration{}, Hot: map[string]time.Duration{}}
	header := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "Showing nodes accounting for") {
			i := strings.Index(line, " of ")
			if i < 0 || !strings.HasSuffix(line, " total") {
				return p, fmt.Errorf("pprof header %q: no total", line)
			}
			d, err := parseDur(strings.TrimSuffix(line[i+len(" of "):], " total"))
			if err != nil {
				return p, fmt.Errorf("pprof header %q: %w", line, err)
			}
			p.Total = d
			continue
		}
		if strings.HasPrefix(line, "flat ") {
			header = true
			continue
		}
		if !header || line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			return p, fmt.Errorf("pprof row %q: want 6 fields", line)
		}
		flat, err := parseDur(f[0])
		if err != nil {
			return p, fmt.Errorf("pprof row %q: %w", line, err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		pkg, name := splitFunc(fn)
		p.Layers[layerOf(pkg)] += flat
		for _, h := range hotFuncs {
			if pkg == h.pkg && name == h.fn {
				p.Hot[h.metric] += flat
			}
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	if !header || p.Total <= 0 {
		return p, fmt.Errorf("pprof text has no samples")
	}
	return p, nil
}

// parseDur reads pprof's duration cells ("10ms", "1.25s", "2.50mins").
func parseDur(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"mins", float64(time.Minute)}, {"hrs", float64(time.Hour)},
		{"ns", 1}, {"us", float64(time.Microsecond)}, {"µs", float64(time.Microsecond)},
		{"ms", float64(time.Millisecond)}, {"s", float64(time.Second)},
	}
	if s == "0" {
		return 0, nil
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("duration %q: %w", s, err)
			}
			return time.Duration(v * u.scale), nil
		}
	}
	return 0, fmt.Errorf("duration %q: unknown unit", s)
}

// splitFunc splits a profiled symbol such as
// "accord/internal/dram.(*Device).Access" into its package path and its
// method or function name (closure suffixes and type arguments dropped).
func splitFunc(sym string) (pkg, name string) {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may themselves hold '/' and '.'
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym, ""
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
	parts := strings.Split(rest, ".")
	name = parts[0]
	if strings.HasPrefix(name, "(") && len(parts) > 1 {
		name = parts[1] // method: (*T).M
	}
	return pkg, name
}

// layerOf maps a package path onto the layer it is reported under.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "accord/internal/"):
		return strings.TrimPrefix(pkg, "accord/internal/")
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" || pkg == "os":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasSuffix(pkg, "/sha256"):
		return "sha256"
	case pkg == "hash/crc32":
		return "crc32"
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}
