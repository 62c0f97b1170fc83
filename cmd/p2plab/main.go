// Command p2plab regenerates any table or figure of the paper and
// writes gnuplot-compatible .dat files plus a text summary, runs
// parameter-grid sweeps across the experiment families, and runs named
// scenarios from the committed corpus.
//
// Usage:
//
//	p2plab -fig 8 -out results/
//	p2plab -fig 9 -scale 10          # scaled-down folding sweep
//	p2plab -fig all -out results/
//	p2plab sweep -exp dht -peers 8,16,32 -class lan,dsl -seeds 1,2,3
//	p2plab sweep -exp swarm -peers 8,16 -churn 0,0.3 -workers 4 -out results/
//	p2plab sweep -exp scenario -scenario flash-crowd,churn-storm -seeds 1,2
//	p2plab sweep -exp snapshot-sync -pieces 1048576,2097152 -conncap 3,5 -rate 0,65536
//	p2plab list                      # the scenario catalogue
//	p2plab run transatlantic-partition-heal
//	p2plab run -spec my-scenario.json -trace 40
//	p2plab serve -addr 127.0.0.1:8080  # HTTP experiment service
//
// Figure ids: 1, 2, 3, bind, 6, 6x (indexed ablation), 7, 8, 9, 10, 11.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/scenario"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			if err := sweepMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "run":
			if err := runMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "list":
			if err := listMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "serve":
			if err := serveMain(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	fig := flag.String("fig", "all", "figure to regenerate (1,2,3,bind,6,6x,7,8,9,10,11,all)")
	out := flag.String("out", "results", "output directory for .dat and .txt files")
	scale := flag.Int("scale", 1, "divide swarm experiment size by this factor")
	seed := flag.Int64("seed", 1, "deterministic random seed")
	modelName := flag.String("model", "pipe", "link model for swarm experiments (pipe, flow)")
	rules := flag.Int("rules", 0, "pad the network firewall with this many filler rules (swarm figures; 0 = no firewall)")
	classifierName := flag.String("classifier", "linear", "firewall packet classifier (linear, indexed; figures 6 and 8-11)")
	flag.Parse()

	model, err := netem.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}
	classifier, err := netem.ParseClassifier(*classifierName)
	if err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = []string{"1", "2", "3", "bind", "6", "6x", "7", "8", "9", "10", "11", "dht", "churn", "gossip"}
	}
	if err := validateFirewallFlags(ids, *rules, classifier); err != nil {
		fatal(err)
	}
	for _, id := range ids {
		start := time.Now()
		fmt.Printf("== figure %s ==\n", id)
		if err := run(id, *out, *scale, *seed, model, *rules, classifier); err != nil {
			fatal(fmt.Errorf("figure %s: %w", id, err))
		}
		fmt.Printf("   done in %v\n", time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p2plab:", err)
	os.Exit(1)
}

// figVariant suffixes a figure id with the firewall parameters so a
// variant run does not silently overwrite the baseline artifacts with
// indistinguishable files; the note is appended to the plot title.
func figVariant(id string, rules int, classifier netem.Classifier) (variant, note string) {
	variant = id
	if rules > 0 {
		variant += fmt.Sprintf("-rules%d", rules)
		note += fmt.Sprintf(", %d firewall rules", rules)
	}
	if classifier != netem.ClassifierLinear {
		variant += "-" + classifier.String()
		note += ", " + classifier.String() + " classifier"
	}
	return variant, note
}

// validateFirewallFlags rejects -rules/-classifier on figure sets they
// cannot affect — silently running without the requested firewall
// would misrepresent the output, the same misuse the sweep axes
// reject.
func validateFirewallFlags(ids []string, rules int, classifier netem.Classifier) error {
	rulesApply, classifierApplies := false, false
	for _, id := range ids {
		switch id {
		case "8", "9", "10", "11", "churn":
			rulesApply = true
			if rules > 0 {
				classifierApplies = true
			}
		case "6":
			// Fig 6 sweeps its own rule counts; only the classifier
			// choice reaches it.
			classifierApplies = true
		}
	}
	if rules > 0 && !rulesApply {
		return fmt.Errorf("-rules applies only to the swarm figures (8, 9, 10, 11, churn)")
	}
	if classifier != netem.ClassifierLinear && !classifierApplies {
		return fmt.Errorf("-classifier needs -fig 6 or a swarm figure with -rules > 0")
	}
	return nil
}

// seriesNames extracts curve titles for plot scripts.
func seriesNames(series []*metrics.Series) []string {
	names := make([]string, len(series))
	for i, s := range series {
		names[i] = s.Name
	}
	return names
}

func writeDat(dir, name string, series ...*metrics.Series) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return metrics.WriteDat(f, series...)
}

// writePlot emits a gnuplot script that renders a .dat file the way the
// paper's figures look (one curve per index block).
func writePlot(dir, figID, datName, title, xlabel, ylabel string, curves []string, withLines bool) error {
	var b strings.Builder
	fmt.Fprintf(&b, "set title %q\n", title)
	fmt.Fprintf(&b, "set xlabel %q\nset ylabel %q\n", xlabel, ylabel)
	fmt.Fprintf(&b, "set key bottom right\nset grid\n")
	fmt.Fprintf(&b, "set terminal pngcairo size 900,600\nset output %q\n", "fig"+figID+".png")
	style := "points pt 7 ps 0.3"
	if withLines {
		style = "lines lw 2"
	}
	fmt.Fprint(&b, "plot ")
	for i, c := range curves {
		if i > 0 {
			fmt.Fprint(&b, ", \\\n     ")
		}
		fmt.Fprintf(&b, "%q index %d with %s title %q", datName, i, style, c)
	}
	fmt.Fprintln(&b)
	return os.WriteFile(filepath.Join(dir, "fig"+figID+".gp"), []byte(b.String()), 0o644)
}

func run(id, out string, scale int, seed int64, model netem.ModelKind, rules int, classifier netem.Classifier) error {
	switch id {
	case "1":
		series := exp.Fig1(nil, seed)
		if err := writePlot(out, "1", "fig1.dat",
			"Average per-process execution time (CPU-bound)",
			"number of concurrent processes", "seconds",
			seriesNames(series), true); err != nil {
			return err
		}
		return writeDat(out, "fig1.dat", series...)
	case "2":
		series := exp.Fig2(nil, seed)
		if err := writePlot(out, "2", "fig2.dat",
			"Average per-process execution time (memory-bound)",
			"number of concurrent processes", "seconds",
			seriesNames(series), true); err != nil {
			return err
		}
		return writeDat(out, "fig2.dat", series...)
	case "3":
		series := exp.Fig3(100, seed)
		if err := writePlot(out, "3", "fig3.dat",
			"CDF of completion times, 100 concurrent 5s processes",
			"process execution time (s)", "F(x)",
			seriesNames(series), true); err != nil {
			return err
		}
		return writeDat(out, "fig3.dat", series...)
	case "bind":
		res, err := exp.BindOverhead()
		if err != nil {
			return err
		}
		fmt.Printf("   connect/close cycle: %v plain, %v intercepted (+%v)\n",
			res.Plain, res.Intercepted, res.Overhead())
		return os.WriteFile(filepath.Join(out, "bind.txt"),
			[]byte(fmt.Sprintf("plain %v\nintercepted %v\noverhead %v\n",
				res.Plain, res.Intercepted, res.Overhead())), 0o644)
	case "6":
		points, err := exp.Fig6(nil, 10, seed, classifier)
		if err != nil {
			return err
		}
		for _, pt := range points {
			fmt.Printf("   %6d rules: rtt avg %v (min %v, max %v)\n",
				pt.Rules, pt.Stats.Avg, pt.Stats.Min, pt.Stats.Max)
		}
		fig6series := exp.Fig6Series(points)
		vid, note := figVariant("6", 0, classifier)
		if err := writePlot(out, vid, "fig"+vid+".dat",
			"Round-trip time vs number of firewall rules"+note,
			"number of rules to evaluate", "time (ms)",
			seriesNames(fig6series), true); err != nil {
			return err
		}
		return writeDat(out, "fig"+vid+".dat", fig6series...)
	case "6x":
		series := exp.Fig6Indexed(nil)
		return writeDat(out, "fig6_indexed.dat", series...)
	case "7":
		res, err := exp.Fig7(14, seed)
		if err != nil {
			return err
		}
		fmt.Printf("   measured RTT %v (model %v, overhead %v) over %d hosts\n",
			res.RTT, res.ModelRTT, res.Overhead, res.Hosts)
		return os.WriteFile(filepath.Join(out, "fig7.txt"),
			[]byte(fmt.Sprintf("rtt %v\nmodel %v\noverhead %v\nhosts %d\n",
				res.RTT, res.ModelRTT, res.Overhead, res.Hosts)), 0o644)
	case "8":
		sp := exp.Fig8Params().Scale(scale)
		sp.Seed = seed
		sp.Model = model
		sp.Rules = rules
		sp.Classifier = classifier
		outcome, err := exp.RunSwarm(sp)
		if err != nil {
			return err
		}
		report(outcome)
		var series []*metrics.Series
		for i, prog := range outcome.PerClient {
			s := exp.ProgressSeries(fmt.Sprintf("client-%d", i), prog, outcome.Meta.Length)
			series = append(series, metrics.Downsample(s, 200))
		}
		vid, note := figVariant("8", rules, classifier)
		if err := writePlot(out, vid, "fig"+vid+".dat",
			"Evolution of the download on each client"+note,
			"time (s)", "percentage of the file transferred",
			[]string{"clients"}, false); err != nil {
			return err
		}
		return writeDat(out, "fig"+vid+".dat", series...)
	case "9":
		sp := exp.Fig8Params().Scale(scale)
		sp.Seed = seed
		sp.Model = model
		sp.Rules = rules
		sp.Classifier = classifier
		foldings := exp.Fig9Foldings
		if scale > 1 {
			foldings = []int{1, 4, 8}
		}
		series, outcomes, err := exp.Fig9(sp, foldings)
		if err != nil {
			return err
		}
		for i, o := range outcomes {
			fmt.Printf("   folding %d: ", foldings[i])
			report(o)
		}
		ds := make([]*metrics.Series, len(series))
		for i, s := range series {
			ds[i] = metrics.Downsample(s, 400)
		}
		vid, note := figVariant("9", rules, classifier)
		if err := writePlot(out, vid, "fig"+vid+".dat",
			"Total amount of data received by the nodes"+note,
			"time (s)", "data received (MB)",
			seriesNames(ds), true); err != nil {
			return err
		}
		return writeDat(out, "fig"+vid+".dat", ds...)
	case "10", "11":
		sp := exp.Fig10Params().Scale(scale)
		sp.Seed = seed
		sp.Model = model
		sp.Rules = rules
		sp.Classifier = classifier
		outcome, err := exp.RunSwarm(sp)
		if err != nil {
			return err
		}
		report(outcome)
		if id == "10" {
			// The paper plots every 50th client.
			var series []*metrics.Series
			for i := 49; i < len(outcome.PerClient); i += 50 {
				s := exp.ProgressSeries(fmt.Sprintf("client-%d", i+1),
					outcome.PerClient[i], outcome.Meta.Length)
				series = append(series, metrics.Downsample(s, 200))
			}
			if len(series) == 0 { // tiny scaled runs
				for i, prog := range outcome.PerClient {
					series = append(series, exp.ProgressSeries(
						fmt.Sprintf("client-%d", i+1), prog, outcome.Meta.Length))
				}
			}
			vid, _ := figVariant("10", rules, classifier)
			return writeDat(out, "fig"+vid+".dat", series...)
		}
		vid, note := figVariant("11", rules, classifier)
		if err := writePlot(out, vid, "fig"+vid+".dat",
			"Clients having completed the download"+note,
			"time (s)", "number of clients",
			[]string{"number of clients"}, true); err != nil {
			return err
		}
		return writeDat(out, "fig"+vid+".dat", exp.CompletionSeries(outcome.Completions))
	case "dht":
		points, err := exp.DHTScaling(nil, 200, seed)
		if err != nil {
			return err
		}
		for _, pt := range points {
			fmt.Printf("   %4d nodes: %.2f avg hops, %v avg latency\n",
				pt.Nodes, pt.AvgHops, pt.AvgLatency)
		}
		byClass, err := exp.DHTLocality(seed)
		if err != nil {
			return err
		}
		for _, name := range []string{"lan", "campus", "dsl", "modem"} {
			pt := byClass[name]
			fmt.Printf("   32 nodes on %-7s %.2f hops, %v avg latency\n",
				name, pt.AvgHops, pt.AvgLatency)
		}
		return writeDat(out, "dht.dat", exp.DHTScalingSeries(points))
	case "churn":
		// Extension E3 is one churn sweep cell: 24 DSL clients (half of
		// them churning) and 2 seeders sharing a 4 MiB file.
		g := exp.Grid{Experiment: exp.ExpChurn, Peers: []int{24}, Models: []netem.ModelKind{model},
			Seeds: []int64{seed}, FileSize: 4 << 20}
		if rules > 0 {
			g.Rules, g.Classifiers = []int{rules}, []netem.Classifier{classifier}
		}
		cells, err := g.Cells()
		if err != nil {
			return err
		}
		sp, err := cells[0].Spec()
		if err != nil {
			return err
		}
		res, err := scenario.Run(sp, scenario.Options{})
		if err != nil {
			return err
		}
		stableDone, stableTotal := res.Done-res.ChurnDone, res.Total-res.Churners
		fmt.Printf("   stable clients: %d/%d done; churners: %d/%d done; %d arrivals, %d departures\n",
			stableDone, stableTotal, res.ChurnDone, res.Churners, res.Arrivals, res.Departures)
		cid, _ := figVariant("churn", rules, classifier)
		return os.WriteFile(filepath.Join(out, cid+".txt"),
			[]byte(fmt.Sprintf("stable %d/%d\nchurners %d/%d\narrivals %d\ndepartures %d\n",
				stableDone, stableTotal, res.ChurnDone, res.Churners, res.Arrivals, res.Departures)), 0o644)
	case "gossip":
		points, err := exp.GossipFanoutSweep(64, nil, seed)
		if err != nil {
			return err
		}
		for _, pt := range points {
			fmt.Printf("   %v\n", pt)
		}
		return writeDat(out, "gossip.dat", exp.GossipSweepSeries(points)...)
	default:
		return fmt.Errorf("unknown figure id %q", id)
	}
}

func report(o *exp.SwarmOutcome) {
	done := 0
	var last float64
	for _, c := range o.Completions {
		if c > 0 {
			done++
			if c.Seconds() > last {
				last = c.Seconds()
			}
		}
	}
	fmt.Printf("   %d/%d clients done, last at %.0fs (kernel: %d events, %d switches)\n",
		done, len(o.Completions), last, o.Kernel.Events, o.Kernel.Switches)
}
