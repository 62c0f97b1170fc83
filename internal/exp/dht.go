package exp

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/topo"
)

// The DHT experiments are extensions beyond the paper's evaluation:
// they use the platform for what it was built for — studying another
// peer-to-peer system (Chord) under controlled edge-network conditions.
// E1 verifies O(log N) routing; E2 shows how lookup latency depends on
// the access-link class, something only the edge-centric emulation
// model can vary cleanly.

// DHTPoint is one measurement of the DHT experiments.
type DHTPoint struct {
	Nodes      int
	AvgHops    float64
	AvgLatency time.Duration
	P90Latency time.Duration
	Timeouts   uint64
}

// DHTRing builds an n-node ring on the given predefined link class,
// warms it up, performs lookups and reports the aggregate. It runs the
// same scenario spec as a dht sweep cell, and is the runner behind
// DHTScaling and DHTLocality.
func DHTRing(n, lookups int, class topo.LinkClass, seed int64) (DHTPoint, error) {
	res, err := runSpec(Cell{Experiment: ExpDHT, Peers: n, Class: class, Model: netem.ModelPipe, Seed: seed, lookups: lookups})
	if err != nil {
		return DHTPoint{}, err
	}
	return DHTPoint{
		Nodes:      n,
		AvgHops:    res.AvgHops,
		AvgLatency: res.AvgLatency,
		P90Latency: res.P90Latency,
		Timeouts:   res.Snapshot.Counters["timeouts"],
	}, nil
}

// DHTScaling measures average lookup hops against ring size (extension
// experiment E1): Chord's O(log N) routing measured on the emulated
// network.
func DHTScaling(sizes []int, lookups int, seed int64) ([]DHTPoint, error) {
	if sizes == nil {
		sizes = []int{8, 16, 32, 64, 128}
	}
	if lookups <= 0 {
		lookups = 200
	}
	var out []DHTPoint
	for _, n := range sizes {
		pt, err := DHTRing(n, lookups, topo.LAN, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// DHTScalingSeries converts scaling points into a hops-vs-N series.
func DHTScalingSeries(points []DHTPoint) *metrics.Series {
	s := &metrics.Series{Name: "avg-lookup-hops"}
	for _, pt := range points {
		s.Add(float64(pt.Nodes), pt.AvgHops)
	}
	return s
}

// DHTLocality measures lookup latency for the same 32-node ring on
// different access links (extension experiment E2): the edge link, not
// the overlay, dominates DHT latency — the paper's core modelling
// argument applied to a structured overlay.
func DHTLocality(seed int64) (map[string]DHTPoint, error) {
	classes := []topo.LinkClass{topo.LAN, topo.Campus, topo.DSL, topo.Modem}
	out := make(map[string]DHTPoint, len(classes))
	for _, class := range classes {
		pt, err := DHTRing(32, 200, class, seed)
		if err != nil {
			return nil, err
		}
		out[class.Name] = pt
	}
	return out, nil
}
