// Command perfbench is the repository's same-host benchmark. It runs
// one workload from the checkout it is started in and prints every
// metric by name and unit; the last line of its output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench spread <result files or directories>
//	perfbench compare <results A> <results B>
//
// --trace 0 times the workload and reports the end-to-end metrics;
// --trace 1 makes one untraced and one traced iteration and reports
// the per-layer metrics. Every result is also saved, with the host and
// code fingerprints, under .bench_build/results.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir   = ".bench_build"
	resultsDir = buildDir + "/results"
	// A timed run measures set-up at least minSetups times and until
	// setupBudget has been spent on it (at most maxSetups times);
	// setup_s is the median.
	minSetups   = 5
	maxSetups   = 1000
	setupBudget = time.Second
	// A timed run makes iterations while the next one fits in the
	// budget, and at least one.
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"virtual_s_per_s", "s/s"},
	{"peers_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"pass_ratio", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "spread":
			return cmdSpread(args[1:], stdout, stderr)
		case "compare":
			return cmdCompare(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: megaswarm-1k, snapshot-capped or corpus-sweep")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "measuring time of a timed run")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	code, err := currentCode(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	debug.SetGCPercent(gcPercent)
	host := currentHost()
	hb, _ := json.Marshal(host)
	cb, _ := json.Marshal(code)
	fmt.Fprintf(stdout, "host %s\ncode %s\n", hb, cb)

	var res *result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, stdout)
	} else {
		res, err = timedRun(w, *seed, time.Duration(*seconds)*time.Second, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	bad, err := goldenCheck(".", buildDir, code)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, b := range bad {
		res.Problems = append(res.Problems, "golden digest: "+b)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	res.Workload, res.Seed, res.Seconds, res.Trace = *name, *seed, *seconds, *traced
	res.Host, res.Code = host, code
	for _, p := range res.Problems {
		fmt.Fprintln(stdout, "FAIL", p)
	}
	path := filepath.Join(resultsDir, fmt.Sprintf("%s-trace%d-seed%d-%d.json", *name, *traced, *seed, time.Now().UnixNano()))
	if err := res.save(path); err != nil {
		fmt.Fprintln(stderr, "perfbench: save result:", err)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome, saved in full; summary is the part
// printed as the last line.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Host       hostFingerprint   `json:"host"`
	Code       codeFingerprint   `json:"code"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Iterations []iterationRecord `json:"iterations"`
	Problems   []string          `json:"problems,omitempty"`
}

type iterationRecord struct {
	WallS       float64 `json:"wall_s"`
	Events      uint64  `json:"events"`
	Fingerprint string  `json:"fingerprint"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func (r *result) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// check folds a run's iterations into the result's attempted/failed
// counts: an iteration fails on any problem of its own, and on a
// simulated fingerprint that differs from the first iteration's.
func (r *result) check(its []*iteration) {
	for i, it := range its {
		r.Attempted += it.cells
		bad := len(it.problems)
		if it.fingerprint != its[0].fingerprint {
			r.Problems = append(r.Problems, fmt.Sprintf("iteration %d: fingerprint %s differs from iteration 1's %s (same seed)",
				i+1, it.fingerprint, its[0].fingerprint))
			bad = it.cells
		}
		if bad > it.cells {
			bad = it.cells
		}
		r.Failed += bad
		r.Problems = append(r.Problems, it.problems...)
		r.Iterations = append(r.Iterations, iterationRecord{WallS: it.wall.Seconds(), Events: it.events, Fingerprint: it.fingerprint})
	}
}

func printIteration(w io.Writer, i int, it *iteration) {
	fmt.Fprintf(w, "iteration %d: wall %.3fs events %d virtual %.1fs cells %d fingerprint %s\n",
		i, it.wall.Seconds(), it.events, it.virtualS, it.cells, it.fingerprint)
}

// timedRun measures set-up repeatedly, then runs same-seed
// iterations for about budget (at least one), with tracing, obs and
// profiling off, and reports the end-to-end medians. Same-seed
// iterations must reproduce each other exactly; a run that fits only
// one asks the workload to recheck it untimed. Each set-up and
// iteration starts after a forced GC, so none pays for the garbage of
// the one before.
func timedRun(w workload, seed int64, budget time.Duration, out io.Writer) (*result, error) {
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		runtime.GC()
		d, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	if err := w.prepare(seed, false); err != nil {
		return nil, err
	}
	var its []*iteration
	var walls []float64
	var elapsed time.Duration
	for len(its) == 0 || elapsed+time.Duration(median(walls)*float64(time.Second)) <= budget {
		runtime.GC()
		it, err := w.iterate(seed, nil)
		if err != nil {
			return nil, err
		}
		printIteration(out, len(its)+1, it)
		its = append(its, it)
		walls = append(walls, it.wall.Seconds())
		elapsed += it.wall
	}
	res := &result{Metrics: map[string]metric{}}
	res.check(its)
	if len(its) == 1 {
		problem, err := w.recheck(seed, its[0])
		if err != nil {
			return nil, fmt.Errorf("recheck: %w", err)
		}
		if problem != "" {
			res.Problems = append(res.Problems, "rerun: "+problem)
			res.Failed = res.Attempted
		}
	}
	rate := func(f func(*iteration) float64) float64 {
		var xs []float64
		for _, it := range its {
			xs = append(xs, f(it)/it.wall.Seconds())
		}
		return median(xs)
	}
	res.set("wall_s", "s", median(walls))
	res.set("setup_s", "s", median(setups))
	res.set("events_per_s", "1/s", rate(func(it *iteration) float64 { return float64(it.events) }))
	// Virtual time per cell swings with the seed (a partition that heals
	// late runs a cell to its horizon), so a sweep's total would follow a
	// few cells. The rate is taken per cell and summarized by the
	// geometric mean over an iteration's cells, as rates over unlike
	// benchmarks are.
	res.set("virtual_s_per_s", "s/s", rate(func(it *iteration) float64 { return geomean(it.cellRates) * it.wall.Seconds() }))
	res.set("peers_per_s", "1/s", rate(func(it *iteration) float64 { return float64(it.peers) }))
	res.set("cells_per_s", "1/s", rate(func(it *iteration) float64 { return float64(it.cells) }))
	res.set("peak_rss_mb", "MiB", peakRSSMiB())
	res.set("pass_ratio", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	for _, m := range endToEnd {
		fmt.Fprintf(out, "%-18s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	return res, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer lists the per-layer metrics of a traced run in print order.
// Counters of a layer a workload does not use read 0.
var perLayer = func() []metricDef {
	defs := []metricDef{}
	for _, l := range layerOrder {
		defs = append(defs, metricDef{shareMetric(l), "share"})
	}
	defs = append(defs,
		metricDef{"profile.attributed_share", "share"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.queue_resizes", "count"},
		metricDef{"sim.switches_per_event", "ratio"},
		metricDef{"runtime.alloc_bytes_per_event", "B"},
		metricDef{"vnet.messages_delivered", "count"},
		metricDef{"vnet.retransmits", "count"},
		metricDef{"netem.fw_visited", "count"},
		metricDef{"flow.solves", "count"},
		metricDef{"flow.solved_flows_per_solve", "ratio"},
		metricDef{"bt.pieces_verified", "count"},
		metricDef{"bt.dial_failures", "count"},
		metricDef{"exp.pool_efficiency", "ratio"},
		metricDef{"obs.overhead_share", "share"},
	)
	for _, p := range probes {
		defs = append(defs, metricDef{p.name, "ns"})
	}
	for _, s := range sweepScenarios() {
		defs = append(defs, metricDef{"exp.cell_wall_s." + s, "s"})
	}
	return defs
}()

// shareMetric names a layer's CPU share metric.
func shareMetric(layer string) string {
	switch layer {
	case layerSched:
		return "runtime.sched_share"
	case layerGC:
		return "runtime.gc_share"
	case layerUnattributed:
		return "profile.unattributed_share"
	}
	return layer + ".cpu_share"
}

// tracedRun makes one untraced iteration (the base for the tracing
// overhead and the allocation count) and one traced iteration under
// the CPU profiler with obs attached and spans recorded, then runs the
// layer probes, and reports the per-layer metrics.
func tracedRun(w workload, seed int64, out io.Writer) (*result, error) {
	if err := w.prepare(seed, true); err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base, err := w.iterate(seed, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	printIteration(out, 1, base)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := w.iterate(seed, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	printIteration(out, 2, traced)
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, total := foldLayers(stacks)
	probeNs, err := runProbes()
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	res.check([]*iteration{base, traced})
	for _, l := range layerOrder {
		res.set(shareMetric(l), "share", shares[l])
	}
	attributed := 1 - shares[layerUnattributed]
	res.set("profile.attributed_share", "share", attributed)
	if total == 0 || attributed < minAttributed {
		res.Problems = append(res.Problems, fmt.Sprintf("named layers hold %.1f%% of CPU samples, want >= %.0f%% (heaviest unattributed: %s)",
			100*attributed, 100*minAttributed, strings.Join(topUnattributed(stacks, 5), ", ")))
	}
	c := traced.counts
	res.set("sim.events", "count", c["sim.events"])
	res.set("sim.queue_resizes", "count", c["sim.queue_resizes"])
	res.set("sim.switches_per_event", "ratio", c["sim.switches"]/c["sim.events"])
	res.set("runtime.alloc_bytes_per_event", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(base.events))
	res.set("vnet.messages_delivered", "count", c["vnet.messages_delivered"])
	res.set("vnet.retransmits", "count", c["vnet.retransmits"])
	res.set("netem.fw_visited", "count", c["netem.fw_visited"])
	res.set("flow.solves", "count", c["flow.solves"])
	res.set("flow.solved_flows_per_solve", "ratio", c["flow.solved_flows"]/c["flow.solves"])
	res.set("bt.pieces_verified", "count", c["bt.pieces_verified"])
	res.set("bt.dial_failures", "count", c["bt.dial_failures"])
	res.set("exp.pool_efficiency", "ratio", traced.poolEff)
	res.set("obs.overhead_share", "share", traced.wall.Seconds()/base.wall.Seconds()-1)
	for name, ns := range probeNs {
		res.set(name, "ns", ns)
	}
	for _, s := range sweepScenarios() {
		res.set("exp.cell_wall_s."+s, "s", median(traced.cellWalls[s]))
	}

	fmt.Fprintf(out, "%-36s %14s %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	tr.summary(out)
	if err := tr.write(filepath.Join(resultsDir, fmt.Sprintf("spans-%d.json", time.Now().UnixNano()))); err != nil {
		fmt.Fprintln(out, "spans not written:", err)
	}
	return res, nil
}
