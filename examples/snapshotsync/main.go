// Command snapshotsync runs the snapshot-sync workload: the inverse of
// the paper's many-small-peers swarms. A handful of clients pull one
// huge file in 2 MiB pieces over few connections, with token-bucket
// rate caps and a web seed as the always-available block source — the
// regime of a blockchain snapshot downloader (hundreds of GB behind a
// CDN in production, scaled down here to keep the run short).
//
//	go run ./examples/snapshotsync                     # 4 clients, 64 MiB, uncapped
//	go run ./examples/snapshotsync -down 1048576       # 1 MiB/s download caps
//	go run ./examples/snapshotsync -seeders 0          # cold CDN fill, web seed only
//
// The run prints per-client completion times, the share of payload the
// web seed carried, and the kernel's event statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	clients := flag.Int("clients", 4, "number of downloading clients")
	seeders := flag.Int("seeders", 1, "number of ordinary seeders")
	webseeds := flag.Int("webseeds", 1, "number of web-seed block servers")
	fileMB := flag.Int64("filemb", 64, "snapshot size in MiB (sparse, no bytes materialized)")
	pieceMB := flag.Int("piecemb", 2, "piece size in MiB")
	connCap := flag.Int("conncap", 5, "per-client connection cap")
	up := flag.Int64("up", 0, "per-client upload cap in bytes/s (0: unlimited)")
	down := flag.Int64("down", 0, "per-client download cap in bytes/s (0: unlimited)")
	model := flag.String("model", "flow", "link model (pipe, flow)")
	window := flag.Duration("window", 250*time.Millisecond, "flow-model re-rate batch window (0: solve per event)")
	seed := flag.Int64("seed", 1, "kernel RNG seed")
	horizon := flag.Duration("horizon", 2*time.Hour, "virtual-time horizon for the run")
	flag.Parse()

	m, err := netem.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapshotsync:", err)
		os.Exit(1)
	}
	// A spec defaults a zero seeder count to 1 and a zero seed to 1;
	// reject both rather than run another experiment than asked for.
	if *seeders < 1 && *webseeds < 1 {
		fmt.Fprintln(os.Stderr, "snapshotsync: needs a seeder or a web seed")
		os.Exit(1)
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "snapshotsync: needs a nonzero seed")
		os.Exit(1)
	}
	win := *window
	if m != netem.ModelFlow {
		win = 0
	}
	sp := &scenario.Spec{
		Name:       "snapshotsync",
		Model:      m.String(),
		Seed:       *seed,
		Horizon:    scenario.Duration(*horizon),
		FlowWindow: scenario.Duration(win),
		Groups: []scenario.GroupSpec{{Name: "peers", Class: topo.FastDSL.Name,
			Nodes: *seeders + *clients, Prefix: "10.0.0.0/16"}},
		Workload: scenario.WorkloadSpec{
			Kind:          scenario.WorkloadSnapshot,
			FileSize:      *fileMB << 20,
			Seeders:       *seeders,
			WebSeeds:      *webseeds,
			StartInterval: scenario.Duration(time.Second),
			PieceLength:   *pieceMB << 20,
			ConnCap:       *connCap,
			UpRate:        *up,
			DownRate:      *down,
		},
	}

	fmt.Printf("snapshotsync: %d clients, %d seeders, %d web seeds; %d MiB in %d MiB pieces, %d conns/client\n",
		*clients, *seeders, *webseeds, *fileMB, *pieceMB, *connCap)
	if *up > 0 || *down > 0 {
		fmt.Printf("rate caps: up %d B/s, down %d B/s\n", *up, *down)
	}
	start := time.Now()
	out, err := scenario.Run(sp, scenario.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapshotsync:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	done := 0
	var last sim.Time
	for i, c := range out.Completions {
		if c > 0 {
			done++
			if c > last {
				last = c
			}
			fmt.Printf("client %d done at %v\n", i, time.Duration(c))
		} else {
			fmt.Printf("client %d DID NOT FINISH inside the horizon\n", i)
		}
	}
	wsBytes := out.Snapshot.Counters["webseed-bytes"]
	total := uint64(*fileMB<<20) * uint64(done)
	share := 0.0
	if total > 0 {
		share = 100 * float64(wsBytes) / float64(total)
	}
	fmt.Printf("wall time        %v\n", wall.Round(time.Millisecond))
	fmt.Printf("virtual time     %v (last completion %v)\n", time.Duration(out.EndedAt), time.Duration(last))
	fmt.Printf("completed        %d/%d clients\n", done, *clients)
	fmt.Printf("web seed bytes   %d (%.1f%% of delivered payload)\n", wsBytes, share)
	fmt.Printf("kernel events    %d dispatched, %d task spawns\n", out.Kernel.Events, out.Kernel.Spawns)
	fmt.Printf("net messages     %d delivered, %d dropped, %d retransmits\n",
		out.Net.MessagesDelivered, out.Net.MessagesDropped, out.Net.Retransmits)
	if done == 0 {
		os.Exit(1)
	}
}
