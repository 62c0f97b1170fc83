package exp

import (
	"testing"
	"time"

	"repro/internal/scenario"
)

// runChurnSpec runs the churn cell of the given population and file
// size through its scenario spec, after mut has adjusted the spec.
func runChurnSpec(t *testing.T, g Grid, mut func(*scenario.Spec)) *scenario.Result {
	t.Helper()
	g.Experiment = ExpChurn
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := cells[0].Spec()
	if err != nil {
		t.Fatal(err)
	}
	mut(sp)
	res, err := scenario.Run(sp, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChurnSwarmStableClientsComplete(t *testing.T) {
	out := runChurnSpec(t, Grid{Peers: []int{12}, FileSize: 1 << 20}, func(*scenario.Spec) {})
	if stableDone, stableTotal := out.Done-out.ChurnDone, out.Total-out.Churners; stableDone != stableTotal {
		t.Errorf("stable clients: %d/%d done — churn must not break the stable swarm",
			stableDone, stableTotal)
	}
	if out.Arrivals == 0 || out.Departures == 0 {
		t.Errorf("no churn happened: %+v", out)
	}
}

func TestChurnSwarmChurnersEventuallyFinish(t *testing.T) {
	// With sessions much longer than the download and short downtimes,
	// even churning clients complete (resume makes progress durable).
	// Sessions last at least 10 minutes (the Pareto scale).
	out := runChurnSpec(t, Grid{Peers: []int{8}, FileSize: 1 << 20}, func(sp *scenario.Spec) {
		sp.Workload.Session = scenario.Duration(10 * time.Minute)
		sp.Workload.Downtime = scenario.Duration(30 * time.Second)
	})
	if out.ChurnDone < out.Churners {
		t.Errorf("churners done = %d/%d with generous sessions", out.ChurnDone, out.Churners)
	}
}

func TestChurnSwarmHarshChurnStillProgresses(t *testing.T) {
	// Short sessions: churners may not finish, but their storage must
	// show progress (durable resume) and the run must stay stable.
	out := runChurnSpec(t, Grid{Peers: []int{10}, FileSize: 2 << 20, Horizon: time.Hour}, func(sp *scenario.Spec) {
		sp.Workload.Session = scenario.Duration(45 * time.Second)
		sp.Workload.Downtime = scenario.Duration(45 * time.Second)
	})
	if out.Done-out.ChurnDone == 0 {
		t.Error("no stable client finished under harsh churn")
	}
	if out.Departures < out.Churners {
		t.Errorf("departures = %d, want at least one per churner", out.Departures)
	}
}
