package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topo"
)

// The sweep engine turns every experiment in this package into a
// grid-runnable scenario: a Grid is the cross product of parameter
// axes (population × churn rate × access-link class × seed), each cell
// runs as an independent deterministic sim.Kernel on its own OS thread
// via a bounded worker pool, and per-cell metrics.Snapshot results
// merge into an aggregate table and CSV. Determinism is per-kernel
// (see repro/internal/sim), so parallelism across cells cannot perturb
// any cell's result: the merged output is identical for any worker
// count.

// Experiment names a sweepable scenario family.
type Experiment string

const (
	// ExpSwarm is the BitTorrent swarm download (Figs 8-11). Cells with
	// a nonzero churn rate run the churn variant (extension E3).
	ExpSwarm Experiment = "swarm"
	// ExpChurn is the churned swarm with a default churn rate of 0.5;
	// otherwise identical to ExpSwarm.
	ExpChurn Experiment = "churn"
	// ExpDHT is the Chord lookup experiment (extensions E1/E2).
	ExpDHT Experiment = "dht"
	// ExpGossip is the epidemic dissemination experiment (E6).
	ExpGossip Experiment = "gossip"
	// ExpSched is the scheduler-suitability workload (Figs 1-3); it
	// uses only the population and seed axes.
	ExpSched Experiment = "sched"
	// ExpScenario runs named scenarios from the committed corpus
	// (repro/internal/scenario): the scenario axis replaces the
	// peers/churn/class/model axes (the spec owns those), leaving the
	// seed axis for replication.
	ExpScenario Experiment = "scenario"
	// ExpPing is the firewall rule-scaling measurement (Fig 6): ping
	// RTT against the rule-table size, under either classifier. It
	// ignores the peers and churn axes and reads the rules and
	// classifier axes.
	ExpPing Experiment = "ping"
	// ExpSnapshotSync is the few-peers/huge-file regime of Erigon's
	// snapshot downloader: large pieces, capped connections, token-
	// bucket rate limiters and web seeds. It reads the piece-size,
	// conn-cap and rate axes on top of peers/class/model/window and
	// measures completion time.
	ExpSnapshotSync Experiment = "snapshot-sync"
)

// Experiments lists the sweepable experiment families.
var Experiments = []Experiment{ExpSwarm, ExpChurn, ExpDHT, ExpGossip, ExpSched, ExpScenario, ExpPing, ExpSnapshotSync}

// maxGridCells caps a grid's cross product: Cells rejects a grid whose
// axis lengths multiply past it, before expanding anything.
const maxGridCells = 100000

// Grid is a parameter grid. Cells() expands the cross product of the
// axes; nil axes get a single experiment-appropriate default, so a
// zero-ish Grid is one cell. Axis values must be distinct: the
// expansion is guaranteed exhaustive and duplicate-free.
type Grid struct {
	Experiment  Experiment
	Peers       []int              // population sizes (clients / ring size / processes)
	Churn       []float64          // churn fractions in [0,1); swarm-family only
	Classes     []topo.LinkClass   // access-link classes
	Models      []netem.ModelKind  // link-emulation models (pipe, flow)
	Windows     []time.Duration    // flow-model batch windows; needs the flow model on the models axis
	Scenarios   []string           // corpus scenario names; scenario experiment only
	Rules       []int              // firewall rule-table sizes; ping and swarm families
	Classifiers []netem.Classifier // firewall classifiers (linear, indexed)
	PieceSizes  []int              // torrent piece lengths in bytes; snapshot-sync only
	ConnCaps    []int              // per-client connection caps; snapshot-sync only
	Rates       []int64            // symmetric up/down rate caps in bytes/s (0 = unlimited); snapshot-sync only
	Seeds       []int64

	// Knobs held constant across the grid.
	FileSize int           // bytes per swarm download (default 2 MiB)
	Lookups  int           // DHT lookups per cell (default 100)
	Fanout   int           // gossip fanout (default 3)
	Horizon  time.Duration // virtual-time cap per cell (default 6 h)
}

// Cell is one point of the grid.
type Cell struct {
	Index      int // position in grid order
	Experiment Experiment
	Peers      int
	Churn      float64
	Class      topo.LinkClass
	Model      netem.ModelKind
	Window     time.Duration // flow-model batch window; always 0 for pipe cells
	Scenario   string        // scenario experiment only
	Rules      int           // firewall rule-table size; ping and swarm families
	Classifier netem.Classifier
	PieceSize  int   // piece length in bytes; snapshot-sync only
	ConnCap    int   // per-client connection cap; snapshot-sync only
	Rate       int64 // symmetric rate cap in bytes/s; snapshot-sync only
	Seed       int64

	fileSize int
	lookups  int
	fanout   int
	horizon  time.Duration
}

// String identifies the cell in logs and errors.
func (c Cell) String() string {
	if c.Experiment == ExpScenario {
		return fmt.Sprintf("%s[%s seed=%d]", c.Experiment, c.Scenario, c.Seed)
	}
	win := ""
	if c.Window > 0 {
		win = fmt.Sprintf(" window=%s", c.Window)
	}
	if c.Experiment == ExpSnapshotSync {
		return fmt.Sprintf("%s[peers=%d class=%s model=%s%s piece=%d conncap=%d rate=%d seed=%d]",
			c.Experiment, c.Peers, c.Class.Name, c.Model, win, c.PieceSize, c.ConnCap, c.Rate, c.Seed)
	}
	if c.Experiment == ExpPing || (c.Experiment.usesRulesAxis() && c.Rules > 0) {
		return fmt.Sprintf("%s[peers=%d churn=%g class=%s model=%s%s rules=%d classifier=%s seed=%d]",
			c.Experiment, c.Peers, c.Churn, c.Class.Name, c.Model, win, c.Rules, c.Classifier, c.Seed)
	}
	return fmt.Sprintf("%s[peers=%d churn=%g class=%s model=%s%s seed=%d]",
		c.Experiment, c.Peers, c.Churn, c.Class.Name, c.Model, win, c.Seed)
}

// usesChurnAxis reports whether the experiment reads the churn axis.
func (e Experiment) usesChurnAxis() bool { return e == ExpSwarm || e == ExpChurn }

// usesPeersAxis reports whether the experiment reads the peers axis
// (a scenario spec owns its own populations; ping is a fixed pair).
func (e Experiment) usesPeersAxis() bool { return e != ExpScenario && e != ExpPing }

// usesClassAxis reports whether the experiment reads the class axis.
func (e Experiment) usesClassAxis() bool { return e != ExpSched && e != ExpScenario }

// usesModelAxis reports whether the experiment reads the link-model
// axis (every vnet-based family does; sched has no network and a
// scenario spec picks its own model).
func (e Experiment) usesModelAxis() bool { return e != ExpSched && e != ExpScenario }

// usesRulesAxis reports whether the experiment reads the firewall
// rules and classifier axes: the Fig 6 ping sweep and the swarm
// families (every message of a firewalled swarm pays the scan).
func (e Experiment) usesRulesAxis() bool { return e == ExpPing || e == ExpSwarm || e == ExpChurn }

// usesWindowAxis reports whether the experiment reads the flow-model
// batch-window axis: the vnet families whose runners take a network
// config (a scenario cell's spec owns its own flow_window knob; the
// DHT and gossip families do not sweep it; sched has no network).
func (e Experiment) usesWindowAxis() bool {
	return e == ExpSwarm || e == ExpChurn || e == ExpPing || e == ExpSnapshotSync
}

// usesSnapshotAxes reports whether the experiment reads the
// piece-size, conn-cap and rate axes (the snapshot-sync workload
// knobs; everything else has fixed piece geometry and no limiter).
func (e Experiment) usesSnapshotAxes() bool { return e == ExpSnapshotSync }

// Cells expands the grid into its cells, in row-major grid order
// (peers, then churn, then class, then model, then scenario, then
// rules, then classifier, then seed). It rejects repeated axis values
// and multi-valued axes the experiment ignores — both would produce
// duplicate cells, and a sweep must be exhaustive and duplicate-free.
func (g Grid) Cells() ([]Cell, error) {
	exp := g.Experiment
	if exp == "" {
		exp = ExpSwarm
	}
	known := false
	for _, e := range Experiments {
		if e == exp {
			known = true
		}
	}
	if !known {
		return nil, fmt.Errorf("exp: unknown experiment %q", exp)
	}

	peers := g.Peers
	if len(peers) == 0 {
		peers = []int{defaultPeers(exp)}
	}
	churns := g.Churn
	if len(churns) == 0 {
		if exp == ExpChurn {
			churns = []float64{0.5}
		} else {
			churns = []float64{0}
		}
	}
	classes := g.Classes
	if len(classes) == 0 {
		classes = []topo.LinkClass{topo.DSL}
	}
	models := g.Models
	if len(models) == 0 {
		models = []netem.ModelKind{netem.ModelPipe}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	if exp == ExpScenario || exp.specBacked() {
		for _, s := range seeds {
			// Seed 0 means "use the spec's own seed" (scenario.Options),
			// and a spec maps seed 0 to 1, so it would silently duplicate
			// another cell.
			if s == 0 {
				return nil, fmt.Errorf("exp: %s sweeps need nonzero seeds (a scenario spec maps 0 to another seed)", exp)
			}
		}
	}
	scenarios := g.Scenarios
	if exp == ExpScenario {
		if len(scenarios) == 0 {
			scenarios = scenario.Names() // default: the whole corpus
		}
		seenScenario := map[string]bool{}
		for _, name := range scenarios {
			if _, ok := scenario.ByName(name); !ok {
				return nil, fmt.Errorf("exp: unknown scenario %q (have %v)", name, scenario.Names())
			}
			if seenScenario[name] {
				return nil, fmt.Errorf("exp: duplicate scenario axis value %q", name)
			}
			seenScenario[name] = true
		}
	} else {
		if len(scenarios) > 0 {
			return nil, fmt.Errorf("exp: %s ignores the scenario axis; %d values would duplicate cells", exp, len(scenarios))
		}
		scenarios = []string{""}
	}

	windows := g.Windows
	if len(windows) == 0 {
		windows = []time.Duration{0}
	}

	ruleCounts := g.Rules
	if len(ruleCounts) == 0 {
		ruleCounts = []int{0}
	}
	classifiers := g.Classifiers
	if len(classifiers) == 0 {
		classifiers = []netem.Classifier{netem.ClassifierLinear}
	}

	pieceSizes := g.PieceSizes
	connCaps := g.ConnCaps
	rates := g.Rates
	if exp.usesSnapshotAxes() {
		if len(pieceSizes) == 0 {
			pieceSizes = []int{2 << 20}
		}
		if len(connCaps) == 0 {
			connCaps = []int{5}
		}
		if len(rates) == 0 {
			rates = []int64{0}
		}
		if err := distinctInts("piece-size", pieceSizes); err != nil {
			return nil, err
		}
		for _, ps := range pieceSizes {
			if ps <= 0 {
				return nil, fmt.Errorf("exp: non-positive piece size %d", ps)
			}
		}
		if err := distinctInts("conn-cap", connCaps); err != nil {
			return nil, err
		}
		for _, cc := range connCaps {
			if cc <= 0 {
				return nil, fmt.Errorf("exp: non-positive conn cap %d", cc)
			}
		}
		seenRate := map[int64]bool{}
		for _, r := range rates {
			if r < 0 {
				return nil, fmt.Errorf("exp: negative rate cap %d", r)
			}
			if seenRate[r] {
				return nil, fmt.Errorf("exp: duplicate rate axis value %d", r)
			}
			seenRate[r] = true
		}
	} else {
		if len(g.PieceSizes) > 0 || len(g.ConnCaps) > 0 || len(g.Rates) > 0 {
			// Even a single explicit value is rejected: these axes select
			// the snapshot workload's knobs, and silently dropping them
			// would misrepresent every cell of the sweep.
			return nil, fmt.Errorf("exp: %s ignores the piece-size, conn-cap and rate axes", exp)
		}
		pieceSizes, connCaps, rates = []int{0}, []int{0}, []int64{0}
	}

	// Bound the cross product before expanding it: a grid may arrive
	// from outside the program (a serve request body), and a few long
	// axes multiply into more cells than any machine can hold.
	size := 1
	for _, n := range []int{len(peers), len(churns), len(classes), len(models), len(windows),
		len(scenarios), len(ruleCounts), len(classifiers), len(pieceSizes), len(connCaps),
		len(rates), len(seeds)} {
		size *= n
		if size > maxGridCells {
			return nil, fmt.Errorf("exp: grid axes multiply to more than %d cells", maxGridCells)
		}
	}

	if !exp.usesPeersAxis() && len(peers) > 1 {
		return nil, fmt.Errorf("exp: %s ignores the peers axis; %d values would duplicate cells", exp, len(peers))
	}
	if !exp.usesChurnAxis() && len(churns) > 1 {
		return nil, fmt.Errorf("exp: %s ignores the churn axis; %d values would duplicate cells", exp, len(churns))
	}
	if !exp.usesClassAxis() && len(classes) > 1 {
		return nil, fmt.Errorf("exp: %s ignores the class axis; %d values would duplicate cells", exp, len(classes))
	}
	if !exp.usesModelAxis() && len(models) > 1 {
		return nil, fmt.Errorf("exp: %s ignores the model axis; %d values would duplicate cells", exp, len(models))
	}
	if !exp.usesWindowAxis() && len(g.Windows) > 0 {
		return nil, fmt.Errorf("exp: %s ignores the flow-window axis", exp)
	}
	if len(g.Windows) > 0 {
		seenWindow := map[time.Duration]bool{}
		anyPositive := false
		for _, w := range g.Windows {
			if w < 0 {
				return nil, fmt.Errorf("exp: negative flow window %v", w)
			}
			if seenWindow[w] {
				return nil, fmt.Errorf("exp: duplicate window axis value %v", w)
			}
			seenWindow[w] = true
			if w > 0 {
				anyPositive = true
			}
		}
		if anyPositive {
			// The window only exists inside the flow solver; a pipe-only
			// sweep would silently run every window value identically.
			anyFlow := false
			for _, mdl := range models {
				if mdl == netem.ModelFlow {
					anyFlow = true
				}
			}
			if !anyFlow {
				return nil, fmt.Errorf("exp: the window axis needs the flow model on the models axis (the pipe model has no solver to batch)")
			}
		}
	}
	if !exp.usesRulesAxis() && (len(g.Rules) > 0 || len(g.Classifiers) > 0) {
		// Even a single explicit value is rejected: these axes request a
		// firewall, and silently running without one would misrepresent
		// every cell of the sweep.
		return nil, fmt.Errorf("exp: %s ignores the rules and classifier axes", exp)
	}
	if err := distinctInts("rules", ruleCounts); err != nil {
		return nil, err
	}
	for _, rc := range ruleCounts {
		if rc < 0 {
			return nil, fmt.Errorf("exp: negative rule count %d", rc)
		}
	}
	seenClassifier := map[netem.Classifier]bool{}
	for _, cl := range classifiers {
		if seenClassifier[cl] {
			return nil, fmt.Errorf("exp: duplicate classifier axis value %q", cl)
		}
		seenClassifier[cl] = true
	}
	if len(g.Classifiers) > 0 {
		// An empty table behaves identically under every classifier
		// (the swarm families do not even install one), so an explicit
		// classifier axis without a nonzero rules value would be
		// silently ignored — error loudly instead, like every other
		// ignored-axis misuse.
		anyRules := false
		for _, rc := range ruleCounts {
			if rc > 0 {
				anyRules = true
			}
		}
		if !anyRules {
			return nil, fmt.Errorf("exp: the classifier axis needs a nonzero rules axis value (an empty table is classifier-independent)")
		}
	}
	seenModel := map[netem.ModelKind]bool{}
	for _, mdl := range models {
		if seenModel[mdl] {
			return nil, fmt.Errorf("exp: duplicate model axis value %q", mdl)
		}
		seenModel[mdl] = true
	}
	if err := distinctInts("peers", peers); err != nil {
		return nil, err
	}
	if err := distinctFloats("churn", churns); err != nil {
		return nil, err
	}
	for _, ch := range churns {
		if ch < 0 || ch >= 1 {
			return nil, fmt.Errorf("exp: churn fraction %g outside [0,1)", ch)
		}
	}
	seen := map[string]bool{}
	for _, c := range classes {
		if seen[c.Name] {
			return nil, fmt.Errorf("exp: duplicate class axis value %q", c.Name)
		}
		seen[c.Name] = true
	}
	seenSeed := map[int64]bool{}
	for _, s := range seeds {
		if seenSeed[s] {
			return nil, fmt.Errorf("exp: duplicate seed axis value %d", s)
		}
		seenSeed[s] = true
	}

	fileSize := g.FileSize
	if fileSize <= 0 {
		fileSize = 2 << 20
		if exp == ExpSnapshotSync {
			// The snapshot regime is defined by big transfers; a 2 MiB
			// default would be a single piece.
			fileSize = 16 << 20
		}
	}
	lookups := g.Lookups
	if lookups <= 0 {
		lookups = 100
	}
	fanout := g.Fanout
	if fanout <= 0 {
		fanout = 3
	}
	horizon := g.Horizon
	if horizon <= 0 {
		horizon = 6 * time.Hour
	}

	var cells []Cell
	for _, p := range peers {
		for _, ch := range churns {
			for _, cl := range classes {
				for _, mdl := range models {
					for wIdx, win := range windows {
						// The batch window lives inside the flow solver, so
						// pipe cells collapse to a single window=0 cell —
						// the expansion stays duplicate-free.
						if mdl != netem.ModelFlow {
							if wIdx > 0 {
								continue
							}
							win = 0
						}
						for _, sc := range scenarios {
							for _, rc := range ruleCounts {
								for cfIdx, cf := range classifiers {
									// An empty table behaves identically under
									// every classifier (the swarm families do
									// not even install one), so rules=0 emits
									// a single baseline cell — the expansion
									// stays duplicate-free.
									if rc == 0 && cfIdx > 0 {
										continue
									}
									for _, ps := range pieceSizes {
										for _, cc := range connCaps {
											for _, rt := range rates {
												for _, s := range seeds {
													cells = append(cells, Cell{
														Index: len(cells), Experiment: exp,
														Peers: p, Churn: ch, Class: cl, Model: mdl, Window: win,
														Scenario: sc, Rules: rc, Classifier: cf,
														PieceSize: ps, ConnCap: cc, Rate: rt, Seed: s,
														fileSize: fileSize, lookups: lookups,
														fanout: fanout, horizon: horizon,
													})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

func defaultPeers(e Experiment) int {
	switch e {
	case ExpSched:
		return 100
	case ExpPing:
		return 2
	case ExpSnapshotSync:
		return 4 // few peers moving a huge file is the whole point
	default:
		return 16
	}
}

func distinctInts(axis string, vs []int) error {
	seen := map[int]bool{}
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("exp: duplicate %s axis value %d", axis, v)
		}
		seen[v] = true
	}
	return nil
}

func distinctFloats(axis string, vs []float64) error {
	seen := map[float64]bool{}
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("exp: duplicate %s axis value %g", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// CellResult is one cell's outcome. Exactly one of Snapshot and Err is
// set: a failing cell carries its error here and never poisons
// siblings.
type CellResult struct {
	Cell     Cell
	Snapshot *metrics.Snapshot
	Err      error
	Wall     time.Duration
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Cells   []CellResult // in grid order, one per cell
	Merged  *metrics.Aggregate
	Failed  int
	Workers int // effective pool size after defaulting and clamping
	Wall    time.Duration
}

// Snapshots returns per-cell snapshots in grid order (nil for failed
// cells), ready for metrics.WriteSnapshotsCSV.
func (r *SweepResult) Snapshots() []*metrics.Snapshot {
	out := make([]*metrics.Snapshot, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = c.Snapshot
	}
	return out
}

// Errs returns the failed cells' errors, in grid order.
func (r *SweepResult) Errs() []error {
	var out []error
	for _, c := range r.Cells {
		if c.Err != nil {
			out = append(out, fmt.Errorf("%s: %w", c.Cell, c.Err))
		}
	}
	return out
}

// RunSweep executes every cell of the grid on a bounded pool of
// workers (default: one per CPU). Each worker locks an OS thread and
// runs one kernel at a time; cells are deterministic in isolation, so
// the merged result is byte-identical for any worker count. A failing
// or panicking cell records its error and leaves every other cell
// untouched.
func RunSweep(g Grid, workers int) (*SweepResult, error) {
	return RunSweepProgress(g, workers, nil)
}

// RunSweepProgress is RunSweep with a completion callback: onCell runs
// after each cell finishes (successfully or not), serialized under an
// internal mutex, with the count of completed cells so far and the
// grid total — the hook the serve layer streams per-cell progress
// from. Cells still complete in nondeterministic wall-clock order; the
// returned SweepResult remains in grid order and worker-count
// independent. A nil onCell is RunSweep exactly.
func RunSweepProgress(g Grid, workers int, onCell func(completed, total int, res CellResult)) (*SweepResult, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	start := time.Now()
	results := make([]CellResult, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	completed := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One kernel run loop per OS thread: cheap context switches
			// between the loop and its simulated goroutines, and no
			// scheduler migration mid-cell.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := range work {
				results[i] = runCellGuarded(cells[i])
				if onCell != nil {
					progressMu.Lock()
					completed++
					onCell(completed, len(cells), results[i])
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()

	res := &SweepResult{Cells: results, Merged: metrics.NewAggregate(), Workers: workers, Wall: time.Since(start)}
	for _, c := range results { // grid order: worker-count independent
		if c.Err != nil {
			res.Failed++
			continue
		}
		res.Merged.Add(c.Snapshot)
	}
	return res, nil
}

// runCellGuarded runs one cell, converting a panic into that cell's
// error so one bad cell cannot take down the sweep.
func runCellGuarded(c Cell) (res CellResult) {
	start := time.Now()
	res.Cell = c
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Snapshot = nil
			res.Err = fmt.Errorf("cell panicked: %v", r)
		}
	}()
	res.Snapshot, res.Err = RunCell(c)
	return res
}

// RunCell executes one grid cell on a fresh kernel and returns its
// snapshot.
func RunCell(c Cell) (*metrics.Snapshot, error) {
	if c.Peers < 2 && c.Experiment != ExpSched {
		return nil, fmt.Errorf("population %d too small (need at least 2 peers)", c.Peers)
	}
	if c.Peers < 1 {
		return nil, fmt.Errorf("population %d too small (need at least 1 process)", c.Peers)
	}
	snap := metrics.NewSnapshot()
	snap.Label("experiment", string(c.Experiment))
	if c.Experiment == ExpScenario {
		snap.Label("scenario", c.Scenario)
	} else {
		snap.Label("peers", fmt.Sprintf("%d", c.Peers))
		snap.Label("churn", fmt.Sprintf("%g", c.Churn))
		snap.Label("class", c.Class.Name)
		snap.Label("model", c.Model.String())
		// Only the flow model has a solver to batch, so a window label
		// on a pipe cell would claim a knob that never ran; window=0
		// flow cells are the legacy per-event behavior and stay
		// label-compatible with older sweeps.
		if c.Window > 0 {
			snap.Label("window", c.Window.String())
		}
	}
	if c.Experiment.usesSnapshotAxes() {
		snap.Label("piece", fmt.Sprintf("%d", c.PieceSize))
		snap.Label("conncap", fmt.Sprintf("%d", c.ConnCap))
		snap.Label("rate", fmt.Sprintf("%d", c.Rate))
	}
	if c.Experiment.usesRulesAxis() {
		snap.Label("rules", fmt.Sprintf("%d", c.Rules))
		// The swarm families run with no firewall at all when Rules ==
		// 0 (Cell.Spec sets no filler rules), so a classifier label there
		// would claim a classifier that never ran; ping always installs
		// the table, empty or not.
		if c.Rules > 0 || c.Experiment == ExpPing {
			snap.Label("classifier", c.Classifier.String())
		}
	}
	snap.Label("seed", fmt.Sprintf("%d", c.Seed))

	var err error
	switch {
	case c.Experiment.specBacked():
		var res *scenario.Result
		if res, err = runSpec(c); err == nil {
			copyMetrics(snap, res.Snapshot)
		}
	case c.Experiment == ExpSched:
		err = runSchedCell(c, snap)
	case c.Experiment == ExpScenario:
		err = runScenarioCell(c, snap)
	case c.Experiment == ExpPing:
		err = runPingCell(c, snap)
	default:
		err = fmt.Errorf("unknown experiment %q", c.Experiment)
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// specBacked reports whether the experiment's cells run as scenario
// specs built by Cell.Spec.
func (e Experiment) specBacked() bool {
	return e == ExpSwarm || e == ExpChurn || e == ExpSnapshotSync || e == ExpDHT || e == ExpGossip
}

// Spec returns the scenario spec a swarm, churn, snapshot-sync, DHT or
// gossip cell runs: one group of the cell's peers (plus the swarm
// families' seeders) on the cell's predefined class at 10.0.0.0/16,
// carrying the cell's link model, flow window, firewall padding,
// workload knobs and horizon.
func (c Cell) Spec() (*scenario.Spec, error) {
	if !c.Experiment.specBacked() {
		return nil, fmt.Errorf("exp: %s cells do not run as a one-group scenario spec", c.Experiment)
	}
	if cl, ok := topo.ClassByName(c.Class.Name); !ok || cl != c.Class {
		return nil, fmt.Errorf("exp: link class %q is not a predefined class", c.Class.Name)
	}
	if c.Seed == 0 {
		// A spec maps seed 0 to 1, which would silently run another cell.
		return nil, fmt.Errorf("exp: %s cells need a nonzero seed", c.Experiment)
	}
	nodes := c.Peers
	var w scenario.WorkloadSpec
	switch c.Experiment {
	case ExpSwarm, ExpChurn:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadSwarm, FileSize: int64(c.fileSize),
			Seeders: 2, StartInterval: scenario.Duration(2 * time.Second)}
		if c.Churn > 0 {
			w.Kind = scenario.WorkloadChurnSwarm
			w.ChurnFraction = c.Churn
		} else if c.Peers >= 40 {
			w.Seeders = 4
		}
		nodes += w.Seeders
	case ExpSnapshotSync:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadSnapshot, FileSize: int64(c.fileSize),
			Seeders: 1, WebSeeds: 1, StartInterval: scenario.Duration(time.Second),
			PieceLength: c.PieceSize, ConnCap: c.ConnCap, UpRate: c.Rate, DownRate: c.Rate}
		nodes += w.Seeders
	case ExpDHT:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadDHT, Lookups: c.lookups}
	case ExpGossip:
		w = scenario.WorkloadSpec{Kind: scenario.WorkloadGossip, Fanout: c.fanout}
	}
	sp := &scenario.Spec{
		Name:       string(c.Experiment),
		Model:      c.Model.String(),
		Seed:       c.Seed,
		Horizon:    scenario.Duration(c.horizon),
		FlowWindow: scenario.Duration(c.Window),
		Groups:     []scenario.GroupSpec{{Name: "peers", Class: c.Class.Name, Nodes: nodes, Prefix: "10.0.0.0/16"}},
		Workload:   w,
	}
	if c.Rules > 0 {
		sp.FillerRules = c.Rules
		sp.Classifier = c.Classifier.String()
	}
	return sp, nil
}

// runSpec runs a spec-backed cell's scenario on a fresh kernel.
func runSpec(c Cell) (*scenario.Result, error) {
	sp, err := c.Spec()
	if err != nil {
		return nil, err
	}
	return scenario.Run(sp, scenario.Options{})
}

// copyMetrics copies a run's measurements into a cell snapshot, which
// keeps its own labels.
func copyMetrics(dst, src *metrics.Snapshot) {
	for k, v := range src.Values {
		dst.Set(k, v)
	}
	for k, v := range src.Counters {
		dst.Count(k, v)
	}
}

// runPingCell sweeps the Fig 6 measurement: RTT against rule-table
// size under the cell's classifier.
func runPingCell(c Cell, snap *metrics.Snapshot) error {
	out, err := RunPing(PingParams{
		Rules:      c.Rules,
		Classifier: c.Classifier,
		Class:      c.Class,
		Model:      c.Model,
		Window:     c.Window,
		Seed:       c.Seed,
	})
	if err != nil {
		return err
	}
	snap.Set("rtt-avg-ms", out.Stats.Avg.Seconds()*1000)
	snap.Set("rtt-min-ms", out.Stats.Min.Seconds()*1000)
	snap.Set("rtt-max-ms", out.Stats.Max.Seconds()*1000)
	snap.Count("fw-evals", out.Evals)
	snap.Count("fw-visited", out.Visited)
	return nil
}

// runScenarioCell runs one corpus scenario under the cell's seed and
// copies its workload metrics into the cell snapshot.
func runScenarioCell(c Cell, snap *metrics.Snapshot) error {
	sp, ok := scenario.ByName(c.Scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q", c.Scenario)
	}
	res, err := scenario.Run(&sp, scenario.Options{Seed: c.Seed})
	if err != nil {
		return err
	}
	snap.Label("workload", sp.Workload.Kind)
	snap.Label("model", res.Model.String())
	copyMetrics(snap, res.Snapshot)
	return nil
}

func runSchedCell(c Cell, snap *metrics.Snapshot) error {
	for _, kind := range sched.Kinds {
		cfg := sched.DefaultConfig(kind)
		cfg.Seed = c.Seed
		res := sched.Run(cfg, sched.CPUBoundJobs(c.Peers))
		snap.Set("exec-avg-s/"+kind.String(), res.AvgExecTime().Seconds())
		snap.Set("makespan-s/"+kind.String(), res.Makespan.Seconds())
	}
	return nil
}
