package exp

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
)

// TestSpecCellsMatchDedicatedDrivers pins the equivalence of spec-backed
// sweep cells with the per-family drivers they replaced. Each want line
// was recorded by running one cell through the previous dedicated
// driver: every metric that driver emitted, plus its kernel statistics
// (events, switches, spawns) and network statistics (sent, delivered,
// dropped, retransmits, bytes). A spec run must reproduce each value
// exactly.
//
// The churn cell is the one exception. The dedicated churn driver never
// installed P2PLab's BINDIP interception on its hosts, while every
// other bt driver and the scenario runner do. It ended at
// ended-s=634.57967805 after kernel-events=22521 and
// kernel-switches=13599; the interception adds 350 of each and 0.57 µs
// of virtual time, and every other value is unchanged. The line below
// pins the spec run's values.
func TestSpecCellsMatchDedicatedDrivers(t *testing.T) {
	flow := []netem.ModelKind{netem.ModelFlow}
	swarm := func(mut func(*Grid)) Grid {
		g := Grid{Experiment: ExpSwarm, Peers: []int{4}, FileSize: 512 << 10, Horizon: 2 * time.Hour}
		mut(&g)
		return g
	}
	snapshot := func(rate int64) Grid {
		return Grid{Experiment: ExpSnapshotSync, Peers: []int{2}, FileSize: 2 << 20,
			PieceSizes: []int{512 << 10}, ConnCaps: []int{2}, Rates: []int64{rate}, Horizon: time.Hour}
	}
	cases := []struct {
		name string
		g    Grid
		want string
	}{
		{"swarm-pipe", swarm(func(*Grid) {}),
			"clients-done=4 done-fraction=1 ended-s=74.97324022 kernel-events=2684 kernel-spawns=73 kernel-switches=1657 last-completion-s=74.97322492 net-bytes=2772587 net-delivered=598 net-dropped=0 net-retransmits=0 net-sent=629"},
		{"swarm-flow-250ms", swarm(func(g *Grid) { g.Models, g.Windows = flow, []time.Duration{250 * time.Millisecond} }),
			"clients-done=4 done-fraction=1 ended-s=78.108833116 kernel-events=2105 kernel-spawns=77 kernel-switches=1316 last-completion-s=78.108815116 net-bytes=2443615 net-delivered=567 net-dropped=0 net-retransmits=0 net-sent=609"},
		{"swarm-rules-linear", swarm(func(g *Grid) {
			g.Rules, g.Classifiers = []int{5000}, []netem.Classifier{netem.ClassifierLinear}
		}),
			"clients-done=4 done-fraction=1 ended-s=74.97396022 kernel-events=2684 kernel-spawns=73 kernel-switches=1657 last-completion-s=74.97394492 net-bytes=2772587 net-delivered=598 net-dropped=0 net-retransmits=0 net-sent=629"},
		{"swarm-rules-indexed", swarm(func(g *Grid) {
			g.Rules, g.Classifiers = []int{5000}, []netem.Classifier{netem.ClassifierIndexed}
		}),
			"clients-done=4 done-fraction=1 ended-s=74.97324022 kernel-events=2684 kernel-spawns=73 kernel-switches=1657 last-completion-s=74.97322492 net-bytes=2772587 net-delivered=598 net-dropped=0 net-retransmits=0 net-sent=629"},
		{"churn", Grid{Experiment: ExpChurn, Peers: []int{8}},
			"arrivals=11 churn-done=4 clients-done=8 departures=8 done-fraction=1 ended-s=634.57967862 kernel-events=22871 kernel-spawns=388 kernel-switches=13949 net-bytes=22050935 net-delivered=5205 net-dropped=0 net-retransmits=0 net-sent=5205 stable-done=4"},
		{"snapshot-uncapped", snapshot(0),
			"clients-done=2 done-fraction=1 ended-s=9.5594072 goodput-mbps=1.7550484007182205 kernel-events=2596 kernel-spawns=31 kernel-switches=1501 last-completion-s=9.5594036 mean-completion-s=9.0593118395 net-bytes=4226329 net-delivered=565 net-dropped=0 net-retransmits=0 net-sent=570 webseed-bytes=4194304"},
		{"snapshot-capped", snapshot(64 << 10),
			"clients-done=2 done-fraction=1 ended-s=17.203059753 goodput-mbps=0.9752462498981185 kernel-events=2847 kernel-spawns=31 kernel-switches=1741 last-completion-s=17.203056153 mean-completion-s=16.703089583 net-bytes=4226746 net-delivered=574 net-dropped=0 net-retransmits=0 net-sent=578 webseed-bytes=4194304"},
		{"dht", Grid{Experiment: ExpDHT, Peers: []int{8}, Lookups: 20},
			"avg-hops=3 avg-latency-ms=789.1109819999999 kernel-events=23565 kernel-spawns=888 kernel-switches=12358 net-bytes=359244 net-delivered=5181 net-dropped=0 net-retransmits=0 net-sent=5185 p90-latency-ms=1576.92162 timeouts=0"},
		{"gossip", Grid{Experiment: ExpGossip, Peers: []int{16}},
			"coverage=1 kernel-events=1880 kernel-spawns=213 kernel-switches=1195 net-bytes=27240 net-delivered=372 net-dropped=0 net-retransmits=0 net-sent=410 pushes=82 t100-s=4.25 t50-s=2.25"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells, err := tc.g.Cells()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := RunCell(cells[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range strings.Fields(tc.want) {
				key, want, _ := strings.Cut(kv, "=")
				var got string
				if v, ok := snap.Values[key]; ok {
					got = strconv.FormatFloat(v, 'g', -1, 64)
				} else if n, ok := snap.Counters[key]; ok {
					got = strconv.FormatUint(n, 10)
				} else {
					t.Errorf("%s missing", key)
					continue
				}
				if got != want {
					t.Errorf("%s = %s, want %s", key, got, want)
				}
			}
		})
	}
}
