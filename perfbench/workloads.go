package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bt"
	"repro/internal/exp"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// A workload is one closed batch: the benchmark runs it iteration
// after iteration from one process, one kernel run (or one sweep) at a
// time.
type workload interface {
	// setup measures one set-up: the workload's construction up to its
	// first dispatched event.
	setup(seed int64) (time.Duration, error)
	// prepare does the untimed work iterate relies on, before any
	// timing or profiling starts; traced asks for per-layer counters.
	prepare(seed int64, traced bool) error
	// iterate runs one timed iteration. A non-nil tracer marks the
	// traced iteration: an obs registry is attached and spans are
	// recorded around the public calls.
	iterate(seed int64, tr *tracer) (*iteration, error)
	// recheck reruns, untimed, enough of a run's only iteration to
	// check that the same seed reproduces it, and describes any
	// difference ("" when there is none).
	recheck(seed int64, it *iteration) (string, error)
}

// iteration is what one timed iteration measured and checked.
type iteration struct {
	wall     time.Duration
	events   uint64  // dispatched kernel events
	virtualS float64 // virtual seconds simulated
	peers    int     // emulated peers
	// cellRates holds each simulated run's virtual seconds per wall
	// second.
	cellRates []float64
	cells     int // simulated runs completed
	// fingerprint digests the simulated outcome (kernel and network
	// counters, end time, completions); same-seed iterations must
	// agree on it exactly. firstCell digests the first simulated run
	// alone.
	fingerprint string
	firstCell   string
	problems    []string
	// Traced iterations only.
	counts    map[string]float64   // per-layer counters
	cellWalls map[string][]float64 // corpus-sweep: cell wall seconds per scenario
	poolEff   float64              // corpus-sweep: Σ cell wall ÷ (workers × wall)
}

var workloads = map[string]workload{
	"megaswarm-1k":    megaswarm{},
	"snapshot-capped": snapshotCapped{},
	"corpus-sweep":    &corpusSweep{},
}

// setupHorizon is the virtual time a set-up measurement runs to: long
// enough to start the kernel, short enough that no transfer begins.
const setupHorizon = time.Microsecond

func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// --- megaswarm-1k -------------------------------------------------

// megaswarm is the "how many peers fit on one host" regime: a flash
// crowd of campus-link leechers on a sparse torrent under the pipe
// model, built from the same public constructors exp.RunSwarm uses.
type megaswarm struct{}

const (
	megaClients  = 1000
	megaSeeders  = 5
	megaFileSize = 2 << 20
	megaInterval = time.Millisecond
	megaHorizon  = 2 * time.Minute
)

type swarmRun struct {
	k       *sim.Kernel
	net     *vnet.Network
	swarm   *bt.Swarm
	allDone bool
	bytes   int64 // verified piece bytes across all leechers
}

func buildMegaswarm(seed int64, reg *obs.Registry, tr *tracer, horizon time.Duration) (*swarmRun, error) {
	r := &swarmRun{}
	s := tr.begin("sim.New", 0)
	r.k = sim.New(seed)
	tr.end(s)
	s = tr.begin("vnet.NewNetwork", 0)
	cfg := vnet.DefaultConfig()
	cfg.Obs = reg
	r.net = vnet.NewNetwork(r.k, nil, cfg)
	tr.end(s)
	s = tr.begin("vnet.AddHostClass", 0)
	trackerHost, err := r.net.AddHostClass(ip.MustParseAddr("10.250.0.1"), topo.LAN)
	if err != nil {
		return nil, err
	}
	hosts := make([]*vnet.Host, 0, megaSeeders+megaClients)
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < megaSeeders+megaClients; i++ {
		h, err := r.net.AddHostClass(base.Add(uint32(i)), topo.Campus)
		if err != nil {
			return nil, err
		}
		h.SetBindEnv(h.Addr())
		hosts = append(hosts, h)
	}
	tr.end(s)
	s = tr.begin("bt.BuildSwarm", 0)
	spec := bt.DefaultSwarmSpec()
	spec.FileSize = megaFileSize
	r.swarm, err = bt.BuildSwarm(spec, trackerHost, hosts[:megaSeeders], hosts[megaSeeders:])
	if err != nil {
		return nil, err
	}
	tr.end(s)
	for _, c := range r.swarm.Clients {
		c.OnPiece = func(_ *bt.Client, _ sim.Time, piece int, _ int64) {
			r.bytes += int64(r.swarm.Meta.PieceSize(piece))
		}
	}
	s = tr.begin("bt.Swarm.Start", 0)
	r.swarm.Start(megaInterval)
	r.k.Go("benchmark-waiter", func(p *sim.Proc) {
		r.allDone = r.swarm.WaitAll(p, horizon)
		r.k.Stop()
	})
	tr.end(s)
	return r, nil
}

func (megaswarm) prepare(int64, bool) error { return nil }

func (m megaswarm) recheck(seed int64, it *iteration) (string, error) {
	again, err := m.iterate(seed, nil)
	if err != nil {
		return "", err
	}
	if again.fingerprint != it.fingerprint {
		return fmt.Sprintf("fingerprint %s, timed run %s", again.fingerprint, it.fingerprint), nil
	}
	return "", nil
}

func (megaswarm) setup(seed int64) (time.Duration, error) {
	start := time.Now()
	r, err := buildMegaswarm(seed, nil, nil, setupHorizon)
	el := time.Since(start)
	if err != nil {
		return 0, err
	}
	// Run to the short horizon so the kernel unwinds its tasks.
	return el, r.k.Run()
}

func (megaswarm) iterate(seed int64, tr *tracer) (*iteration, error) {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	start := time.Now()
	r, err := buildMegaswarm(seed, reg, tr, megaHorizon)
	if err != nil {
		return nil, err
	}
	s := tr.begin("sim.Kernel.Run", 0)
	if err := r.k.Run(); err != nil {
		return nil, fmt.Errorf("megaswarm kernel: %w", err)
	}
	tr.end(s)
	it := &iteration{wall: time.Since(start), peers: megaClients + megaSeeders, cells: 1}
	ks, ns, ended := r.k.Snapshot(), r.net.Stats(), r.k.Now()
	done := r.swarm.CompletedCount()
	it.events, it.virtualS = ks.Events, ended.Seconds()
	it.cellRates = []float64{it.virtualS / it.wall.Seconds()}
	it.fingerprint = digest(ks, ns, ended, done, megaClients, r.bytes)
	it.firstCell = it.fingerprint
	if !r.allDone || done != megaClients {
		it.problems = append(it.problems, fmt.Sprintf("%d/%d leechers done by %v", done, megaClients, ended))
	}
	if want := int64(megaClients) * megaFileSize; r.bytes != want {
		it.problems = append(it.problems, fmt.Sprintf("verified %d bytes, want %d", r.bytes, want))
	}
	if tr != nil {
		it.counts = kernelNetCounts(ks, ns, r.k.QueueResizes())
		if fs, ok := r.net.FlowStats(); ok {
			it.counts["flow.solves"] = float64(fs.Solves)
			it.counts["flow.solved_flows"] = float64(fs.SolvedFlows)
		}
		addBTCounts(it.counts, reg.Snapshot())
	}
	return it, nil
}

// --- snapshot-capped ----------------------------------------------

// snapshotCapped runs the corpus scenario whose flow re-rates turn
// every reschedule into a queue tombstone plus a push: few hosts, few
// dispatched events, millions of queue operations.
type snapshotCapped struct{}

const (
	cappedScenario = "snapshot-flash-crowd-capped"
	cappedFileSize = 2 << 20
	// cappedSeeds runs, one after another, make one iteration. How hard
	// the event queue's resize pathology bites depends on the seed: over
	// 16 seeds one run took 6.4 to 10.6 s, and the same seed takes the
	// same time run after run. So an iteration averages over several.
	cappedSeeds = 3
)

// subSeeds derives n kernel seeds from the workload seed; consecutive
// workload seeds get disjoint sets. None is zero: scenario.Options reads
// a zero seed as "the spec's own seed", and sweeps refuse it.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		if seed >= 0 {
			out[i] = seed*int64(n) + int64(i) + 1
		} else {
			out[i] = seed*int64(n) - int64(i) - 1
		}
	}
	return out
}

func cappedSpec(horizon time.Duration) (scenario.Spec, error) {
	sp, ok := scenario.ByName(cappedScenario)
	if !ok {
		return sp, fmt.Errorf("corpus has no scenario %q", cappedScenario)
	}
	sp.Workload.FileSize = cappedFileSize
	if horizon > 0 {
		sp = clipHorizon(sp, horizon)
	}
	return sp, nil
}

// clipHorizon shortens a scenario to horizon, dropping the timeline
// events that would fall beyond it.
func clipHorizon(sp scenario.Spec, horizon time.Duration) scenario.Spec {
	sp.Horizon = scenario.Duration(horizon)
	var kept []scenario.EventSpec
	for _, ev := range sp.Timeline {
		if ev.At.D() <= horizon {
			kept = append(kept, ev)
		}
	}
	sp.Timeline = kept
	return sp
}

func (snapshotCapped) prepare(int64, bool) error { return nil }

func (snapshotCapped) setup(seed int64) (time.Duration, error) {
	sp, err := cappedSpec(setupHorizon)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = scenario.Run(&sp, scenario.Options{Seed: subSeeds(seed, cappedSeeds)[0]})
	return time.Since(start), err
}

// cappedRun is one kernel run of the capped scenario.
func cappedRun(sp scenario.Spec, seed int64, reg *obs.Registry) (*scenario.Result, string, error) {
	res, err := scenario.Run(&sp, scenario.Options{Seed: seed, Obs: reg})
	if err != nil {
		return nil, "", err
	}
	return res, digest(res.Kernel, res.Net, res.EndedAt, res.Done, res.Total), nil
}

func (snapshotCapped) iterate(seed int64, tr *tracer) (*iteration, error) {
	sp, err := cappedSpec(0)
	if err != nil {
		return nil, err
	}
	it := &iteration{}
	var fps []any
	for _, sub := range subSeeds(seed, cappedSeeds) {
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
		}
		s := tr.begin("scenario.Run", 0)
		start := time.Now()
		res, fp, err := cappedRun(sp, sub, reg)
		wall := time.Since(start)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		it.wall += wall
		it.peers += sp.TotalNodes()
		it.cells++
		it.events += res.Kernel.Events
		it.virtualS += res.EndedAt.Seconds()
		it.cellRates = append(it.cellRates, res.EndedAt.Seconds()/wall.Seconds())
		if fps = append(fps, fp); len(fps) == 1 {
			it.firstCell = fp
		}
		if res.Total == 0 || res.Done != res.Total {
			it.problems = append(it.problems, fmt.Sprintf("seed %d: %d/%d clients done by %v", sub, res.Done, res.Total, res.EndedAt))
		}
		if want := uint64(res.Total) * cappedFileSize; res.Net.BytesDelivered < want {
			it.problems = append(it.problems, fmt.Sprintf("seed %d: delivered %d bytes, want at least %d", sub, res.Net.BytesDelivered, want))
		}
		if tr != nil {
			if it.counts == nil {
				it.counts = map[string]float64{}
			}
			snap := reg.Snapshot()
			for k, v := range kernelNetCounts(res.Kernel, res.Net, uint64(snap.Total("p2plab_sim_queue_resizes_total"))) {
				it.counts[k] += v
			}
			addFlowCounts(it.counts, snap)
			addBTCounts(it.counts, snap)
		}
	}
	it.fingerprint = digest(fps...)
	return it, nil
}

// recheck reruns the iteration's first kernel seed.
func (snapshotCapped) recheck(seed int64, it *iteration) (string, error) {
	sp, err := cappedSpec(0)
	if err != nil {
		return "", err
	}
	_, fp, err := cappedRun(sp, subSeeds(seed, cappedSeeds)[0], nil)
	if err != nil {
		return "", err
	}
	if fp != it.firstCell {
		return fmt.Sprintf("seed %d: fingerprint %s, timed run %s", subSeeds(seed, cappedSeeds)[0], fp, it.firstCell), nil
	}
	return "", nil
}

// --- corpus-sweep -------------------------------------------------

// corpusSweep runs exp.RunSweep over every corpus scenario except the
// capped snapshot (its own workload) for sweepSeeds seeds, on one
// worker per CPU. Sweep cells carry no kernel counters, so a direct,
// untimed pass runs each cell once through scenario.Run: it supplies
// the event counts and, cell by cell, must agree with the sweep.
type corpusSweep struct {
	direct *directPass // the last seed's pass
}

const sweepSeeds = 4

// directPass is the untimed scenario.Run pass over the sweep's cells.
type directPass struct {
	seed     int64
	cells    []directCell // grid order
	events   uint64
	virtualS float64
	peers    int
	counts   map[string]float64 // nil unless the pass ran with obs attached
}

type directCell struct {
	kernel sim.Stats
	net    vnet.NetworkStats
	endedS float64
	fp     string
}

func sweepScenarios() []string {
	var names []string
	for _, n := range scenario.Names() {
		if n != cappedScenario {
			names = append(names, n)
		}
	}
	return names
}

func sweepWorkers() int { return runtime.NumCPU() }

// forEachParallel calls fn(0..n-1) on sweepWorkers goroutines and
// returns when every call has returned.
func forEachParallel(n int, fn func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

func sweepGrid(seed int64) exp.Grid {
	return exp.Grid{Experiment: exp.ExpScenario, Scenarios: sweepScenarios(), Seeds: subSeeds(seed, sweepSeeds)}
}

func (w *corpusSweep) setup(seed int64) (time.Duration, error) {
	var total time.Duration
	for _, name := range sweepScenarios() {
		sp, _ := scenario.ByName(name)
		sp = clipHorizon(sp, setupHorizon)
		start := time.Now()
		if _, err := scenario.Run(&sp, scenario.Options{Seed: subSeeds(seed, sweepSeeds)[0]}); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		total += time.Since(start)
	}
	return total, nil
}

// prepare runs the direct pass for seed unless one is at hand. Attaching
// obs never changes a run, so a traced pass serves untraced iterations
// too.
func (w *corpusSweep) prepare(seed int64, traced bool) error {
	if d := w.direct; d != nil && d.seed == seed && (d.counts != nil || !traced) {
		return nil
	}
	d, err := runDirect(seed, traced)
	if err != nil {
		return err
	}
	w.direct = d
	return nil
}

func runDirect(seed int64, traced bool) (*directPass, error) {
	cells, err := sweepGrid(seed).Cells()
	if err != nil {
		return nil, err
	}
	d := &directPass{seed: seed, cells: make([]directCell, len(cells))}
	regs := make([]*obs.Registry, len(cells))
	errs := make([]error, len(cells))
	nodes := make([]int, len(cells))
	forEachParallel(len(cells), func(i int) {
		c := cells[i]
		sp, _ := scenario.ByName(c.Scenario)
		if traced {
			regs[i] = obs.NewRegistry()
		}
		res, err := scenario.Run(&sp, scenario.Options{Seed: c.Seed, Obs: regs[i]})
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", c, err)
			return
		}
		nodes[i] = sp.TotalNodes()
		d.cells[i] = directCell{kernel: res.Kernel, net: res.Net, endedS: res.EndedAt.Seconds(),
			fp: digest(res.Kernel, res.Net, res.EndedAt, res.Done, res.Total)}
	})
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		d.events += d.cells[i].kernel.Events
		d.virtualS += d.cells[i].endedS
		d.peers += nodes[i]
	}
	if traced {
		d.counts = map[string]float64{}
		for i, reg := range regs {
			snap := reg.Snapshot()
			c := kernelNetCounts(d.cells[i].kernel, d.cells[i].net, uint64(snap.Total("p2plab_sim_queue_resizes_total")))
			addFlowCounts(c, snap)
			addBTCounts(c, snap)
			for k, v := range c {
				d.counts[k] += v
			}
		}
	}
	return d, nil
}

func (w *corpusSweep) iterate(seed int64, tr *tracer) (*iteration, error) {
	if err := w.prepare(seed, tr != nil); err != nil {
		return nil, err
	}
	d := w.direct
	grid := sweepGrid(seed)
	var onCell func(int, int, exp.CellResult)
	if tr != nil {
		parent := tr.begin("exp.RunSweep", 0)
		defer tr.end(parent)
		onCell = func(_, _ int, res exp.CellResult) {
			tr.record("exp.RunCell "+res.Cell.String(), parent, time.Now().Add(-res.Wall), time.Now())
		}
	}
	start := time.Now()
	res, err := exp.RunSweepProgress(grid, sweepWorkers(), onCell)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	it := &iteration{wall: wall, events: d.events, virtualS: d.virtualS, peers: d.peers, cells: len(res.Cells)}
	for _, e := range res.Errs() {
		it.problems = append(it.problems, e.Error())
	}
	if len(res.Cells) != len(d.cells) {
		it.problems = append(it.problems, fmt.Sprintf("sweep ran %d cells, want %d", len(res.Cells), len(d.cells)))
		return it, nil
	}
	var csv bytes.Buffer
	if err := metrics.WriteSnapshotsCSV(&csv, res.Snapshots()); err != nil {
		return nil, err
	}
	fps := []any{csv.String()}
	for i, c := range res.Cells {
		dc := d.cells[i]
		fps = append(fps, dc.fp)
		it.cellRates = append(it.cellRates, dc.endedS/c.Wall.Seconds())
		if c.Err != nil {
			continue
		}
		if p := compareCell(c.Snapshot, dc); p != "" {
			it.problems = append(it.problems, fmt.Sprintf("%s: sweep and direct run disagree: %s", c.Cell, p))
		}
	}
	it.fingerprint = digest(fps...)
	if tr != nil {
		it.counts = map[string]float64{}
		for k, v := range d.counts {
			it.counts[k] = v
		}
		it.cellWalls = map[string][]float64{}
		var busy time.Duration
		for _, c := range res.Cells {
			it.cellWalls[c.Cell.Scenario] = append(it.cellWalls[c.Cell.Scenario], c.Wall.Seconds())
			busy += c.Wall
			if c.Snapshot != nil {
				it.counts["netem.fw_visited"] += float64(c.Snapshot.Counters["fw-visited"])
			}
		}
		it.poolEff = busy.Seconds() / (float64(res.Workers) * wall.Seconds())
	}
	return it, nil
}

// recheck has nothing to add: iterate already compared every cell with
// its own direct, independent run.
func (*corpusSweep) recheck(int64, *iteration) (string, error) { return "", nil }

// compareCell checks a sweep cell's snapshot against the same cell run
// directly; it returns "" when they agree.
func compareCell(s *metrics.Snapshot, d directCell) string {
	want := map[string]uint64{
		"net-sent":        d.net.MessagesSent,
		"net-delivered":   d.net.MessagesDelivered,
		"net-dropped":     d.net.MessagesDropped,
		"net-retransmits": d.net.Retransmits,
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s.Counters[k] != want[k] {
			return fmt.Sprintf("%s %d vs %d", k, s.Counters[k], want[k])
		}
	}
	if s.Values["ended-s"] != d.endedS {
		return fmt.Sprintf("ended-s %v vs %v", s.Values["ended-s"], d.endedS)
	}
	return ""
}

// --- per-layer counters -------------------------------------------

func kernelNetCounts(ks sim.Stats, ns vnet.NetworkStats, resizes uint64) map[string]float64 {
	return map[string]float64{
		"sim.events":              float64(ks.Events),
		"sim.switches":            float64(ks.Switches),
		"sim.queue_resizes":       float64(resizes),
		"vnet.messages_delivered": float64(ns.MessagesDelivered),
		"vnet.retransmits":        float64(ns.Retransmits),
	}
}

func addFlowCounts(c map[string]float64, snap *obs.Snapshot) {
	c["flow.solves"] += snap.Total("p2plab_flow_solves_total")
	c["flow.solved_flows"] += snap.Total("p2plab_flow_solved_flows_total")
}

func addBTCounts(c map[string]float64, snap *obs.Snapshot) {
	c["bt.pieces_verified"] += snap.Total("p2plab_bt_piece_completions_total")
	c["bt.dial_failures"] += snap.Total("p2plab_bt_dial_failures_total")
}
