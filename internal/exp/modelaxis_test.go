package exp

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/topo"
)

// TestGridModelAxis: the model axis expands like any other axis, is
// validated for duplicates, and is rejected for families without a
// network.
func TestGridModelAxis(t *testing.T) {
	g := Grid{
		Experiment: ExpSwarm,
		Peers:      []int{4},
		Models:     []netem.ModelKind{netem.ModelPipe, netem.ModelFlow},
		Seeds:      []int64{1},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].Model != netem.ModelPipe || cells[1].Model != netem.ModelFlow {
		t.Fatalf("model axis order wrong: %v, %v", cells[0].Model, cells[1].Model)
	}

	dup := Grid{Experiment: ExpSwarm, Models: []netem.ModelKind{netem.ModelFlow, netem.ModelFlow}}
	if _, err := dup.Cells(); err == nil {
		t.Error("duplicate model axis values not rejected")
	}
	sched := Grid{Experiment: ExpSched, Models: []netem.ModelKind{netem.ModelPipe, netem.ModelFlow}}
	if _, err := sched.Cells(); err == nil {
		t.Error("sched should reject a multi-valued model axis")
	}
}

// TestSweepModelAxisCells runs a tiny pipe-vs-flow swarm sweep
// end-to-end: both cells must complete, carry the model label, and
// produce different completion profiles (contention exists in any
// swarm, so the models cannot coincide).
func TestSweepModelAxisCells(t *testing.T) {
	g := Grid{
		Experiment: ExpSwarm,
		Peers:      []int{4},
		Models:     []netem.ModelKind{netem.ModelPipe, netem.ModelFlow},
		FileSize:   256 * 1024,
		Horizon:    2 * time.Hour,
	}
	res, err := RunSweep(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed cells: %v", res.Errs())
	}
	var ended []float64
	for i, c := range res.Cells {
		if got := c.Snapshot.Labels["model"]; got != c.Cell.Model.String() {
			t.Errorf("cell %d model label = %q, want %q", i, got, c.Cell.Model)
		}
		if done := c.Snapshot.Values["done-fraction"]; done < 1 {
			t.Errorf("cell %d (%s) done-fraction = %v, want 1", i, c.Cell, done)
		}
		ended = append(ended, c.Snapshot.Values["last-completion-s"])
	}
	if ended[0] == ended[1] {
		t.Errorf("pipe and flow cells produced identical completion times (%v); model option has no effect", ended[0])
	}
}

// TestDHTGossipModelVariants: the dht and gossip specs accept the
// flow model and still measure sane aggregates.
func TestDHTGossipModelVariants(t *testing.T) {
	pt, err := runSpec(Cell{Experiment: ExpDHT, Peers: 8, Class: topo.LAN, Model: netem.ModelFlow, Seed: 1, lookups: 20})
	if err != nil {
		t.Fatal(err)
	}
	if pt.AvgHops <= 0 {
		t.Errorf("no hops measured under flow model: %+v", pt)
	}
	gp, err := runSpec(Cell{Experiment: ExpGossip, Peers: 16, Class: topo.LAN, Model: netem.ModelFlow, Seed: 1, fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gp.Coverage < 1 {
		t.Errorf("gossip coverage %v under flow model, want 1", gp.Coverage)
	}
}
