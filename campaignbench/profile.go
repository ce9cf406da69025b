package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// topRow is one function of `go tool pprof -top`: its self (flat) and
// cumulative CPU seconds.
type topRow struct {
	Flat, Cum float64
	Func      string
}

// parseTop reads the text of `go tool pprof -top`. Rows follow the
// "flat flat% sum% cum cum%" header; a function name may contain spaces.
func parseTop(text string) ([]topRow, error) {
	var rows []topRow
	inRows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inRows {
			inRows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" && f[3] == "cum"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		cum, err := parseDuration(f[3])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows = append(rows, topRow{Flat: flat, Cum: cum, Func: name})
	}
	if !inRows {
		return nil, fmt.Errorf("pprof output has no flat/cum header")
	}
	return rows, nil
}

// parseDuration reads a pprof duration such as "1.25s", "830ms" or "2mins".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err
}

// packageOf returns the import path of a pprof function name, e.g.
// "activemem/internal/mem" for "activemem/internal/mem.(*Cache).probe".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a function to the layer its self time is charged to. The
// layers are the repository's modules; the Go runtime, the benchmark's own
// code and the rest of the standard library get layers of their own.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "main":
		return "harness"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "remote" // the remote tier's HTTP client and server
	}
	rest, ok := strings.CutPrefix(pkg, "activemem/internal/")
	if !ok {
		return "other"
	}
	switch rest {
	case "experiments", "report":
		return "experiments"
	case "core", "stats":
		return "core"
	case "dist", "model", "lab", "store", "remote", "cluster", "mem", "telemetry":
		return rest
	case "engine", "machine":
		return "engine"
	case "apps/mcb":
		return "apps.mcb"
	case "apps/lulesh":
		return "apps.lulesh"
	case "workload/synthetic":
		return "workload.synthetic"
	case "workload/interfere":
		switch {
		case strings.Contains(fn, "CSThr") || strings.Contains(fn, "CSConfig"):
			return "workload.csthr"
		case strings.Contains(fn, "BWThr") || strings.Contains(fn, "BWConfig"):
			return "workload.bwthr"
		}
		return "workload.other"
	case "workload/stream", "workload/pchase", "workload":
		return "workload.other"
	}
	return "other"
}

// layers lists every layer layerOf can return, in report order.
var layers = []string{
	"experiments", "core", "dist", "model", "lab", "store", "remote",
	"cluster", "apps.mcb", "apps.lulesh", "engine",
	"workload.csthr", "workload.bwthr", "workload.synthetic", "workload.other",
	"mem", "telemetry", "runtime", "harness", "other",
}

// cumGroups are cumulative-time metrics: named functions whose callees'
// time is charged to them. A workload's Step spends most of its time in
// mem, so its self time alone hides what it costs. The functions of one
// group never call each other, so their cumulative times add without
// double counting.
var cumGroups = []struct {
	metric string
	funcs  []string
}{
	{"mem.probe.cpu_s", []string{"activemem/internal/mem.(*Cache).probe"}},
	{"mem.victim_way.cpu_s", []string{"activemem/internal/mem.(*Cache).victimWay"}},
	{"mem.prefetch_observe.cpu_s", []string{"activemem/internal/mem.(*Prefetcher).Observe"}},
	{"mem.writeback.cpu_s", []string{
		"activemem/internal/mem.(*Hierarchy).writebackToL2",
		"activemem/internal/mem.(*Hierarchy).writebackToL3"}},
	{"mem.presence_remove.cpu_s", []string{"activemem/internal/mem.(*presenceFilter).remove"}},
	{"workload.csthr.cum_cpu_s", []string{"activemem/internal/workload/interfere.(*CSThr).Step"}},
	{"workload.bwthr.cum_cpu_s", []string{"activemem/internal/workload/interfere.(*BWThr).Step"}},
	{"workload.synthetic.cum_cpu_s", []string{"activemem/internal/workload/synthetic.(*Bench).Step"}},
	{"apps.mcb.cum_cpu_s", []string{"activemem/internal/apps/mcb.(*rank).Step"}},
	{"apps.lulesh.cum_cpu_s", []string{"activemem/internal/apps/lulesh.(*rank).Step"}},
	{"runtime.gc.cpu_s", []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}},
}

// groupProfile reduces pprof rows to per-layer self seconds, the
// cumulative groups and the total sampled seconds.
func groupProfile(rows []topRow) map[string]float64 {
	out := map[string]float64{}
	for _, l := range layers {
		out[l+".cpu_s"] = 0
	}
	cum := map[string]float64{}
	total := 0.0
	for _, r := range rows {
		out[layerOf(r.Func)+".cpu_s"] += r.Flat
		cum[r.Func] = r.Cum
		total += r.Flat
	}
	for _, g := range cumGroups {
		for _, fn := range g.funcs {
			out[g.metric] += cum[fn]
		}
	}
	out["profile.cpu_s"] = total
	return out
}

// hideShared names the helper packages whose frames pprof drops from every
// stack, so their self time is charged to the repository function that
// called them: math to dist, encoding/gob to lab, file syncs to store, the
// xrand generators to the workload drawing the numbers. The runtime and
// net/http stay visible as layers.
const hideShared = `^(activemem/internal/xrand|math|sort|strconv|strings|bytes|fmt|encoding|hash|crypto|sync|reflect|unicode|` +
	`slices|maps|io|bufio|os|syscall|internal/poll|internal/syscall|internal/runtime/syscall|` +
	`time|errors|path|context)[./]`

// pprofTop runs `go tool pprof -top` over a CPU profile, listing every
// function.
func pprofTop(goBin, profile string) (string, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-hide="+hideShared,
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %v", err)
	}
	return string(out), nil
}
