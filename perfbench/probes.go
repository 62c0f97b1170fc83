package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bt"
	"repro/internal/flow"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// Layer probes time one public call of one layer in isolation, on a
// fixed input, and report nanoseconds per operation (the median of
// probeReps repetitions). They run only in traced runs; their inputs
// never depend on the workload seed.

const probeReps = 3

// A probe returns the wall time of its timed section (set-up such as
// filling a queue or a rule table is excluded) and the operations it
// performed there.
type probe struct {
	name string
	run  func() (time.Duration, int, error)
}

var probes = []probe{
	{"sim.handoff_ns", probeHandoff},
	{"sim.dispatch_ns", probeDispatch},
	{"sim.reschedule_ns", probeReschedule},
	{"vnet.send_ns", probeSend},
	{"netem.pipe_schedule_ns", probePipeSchedule},
	{"netem.rule_eval_linear_ns", func() (time.Duration, int, error) { return probeRuleEval(netem.ClassifierLinear, 200) }},
	{"netem.rule_eval_indexed_ns", func() (time.Duration, int, error) { return probeRuleEval(netem.ClassifierIndexed, 200000) }},
	{"flow.churn_op_ns", probeFlowChurn},
	{"bt.pick_ns", probePick},
	{"trace.add_ns", probeTraceAdd},
}

// runProbes returns each probe's median ns/op.
func runProbes() (map[string]float64, error) {
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		var per []float64
		for i := 0; i < probeReps; i++ {
			el, ops, err := p.run()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			per = append(per, float64(el.Nanoseconds())/float64(ops))
		}
		out[p.name] = median(per)
	}
	return out, nil
}

// probeHandoff is one task sleeping in a loop: each Sleep parks the
// task, hands the execution token to the kernel loop, dispatches the
// wake event and hands the token back.
func probeHandoff() (time.Duration, int, error) {
	const n = 100000
	k := sim.New(1)
	k.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	start := time.Now()
	err := k.Run()
	return time.Since(start), n, err
}

// probeDispatch keeps 32768 timers outstanding, each rescheduling
// itself at a random offset when it fires, and leaves one cancelled
// timer (a tombstone) in the queue per dispatch.
func probeDispatch() (time.Duration, int, error) {
	const depth, n = 32768, 300000
	k := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	fired := 0
	noop := func() {}
	var fire func()
	fire = func() {
		fired++
		k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, noop).Cancel()
		if fired+depth <= n {
			k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, fire)
		}
	}
	for i := 0; i < depth; i++ {
		k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, fire)
	}
	start := time.Now()
	err := k.Run()
	return time.Since(start), fired, err
}

// probeReschedule moves pending timers in a queue 32768 deep, the way
// flow re-rates move completion events, and times only the
// Reschedule calls.
func probeReschedule() (time.Duration, int, error) {
	const depth, perTick, ticks = 32768, 64, 2000
	k := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	noop := func() {}
	evs := make([]*sim.Event, depth)
	for i := range evs {
		evs[i] = k.After(time.Duration(1+rng.Intn(1000))*time.Second, noop)
	}
	var spent time.Duration
	tick := 0
	var step func()
	step = func() {
		start := time.Now()
		for i := 0; i < perTick; i++ {
			ev := evs[rng.Intn(depth)]
			ev.Reschedule(k.LoopNow().Add(time.Duration(1+rng.Intn(1000)) * time.Second))
		}
		spent += time.Since(start)
		if tick++; tick == ticks {
			k.Stop()
			return
		}
		k.After(time.Microsecond, step)
	}
	k.After(time.Microsecond, step)
	err := k.Run()
	return spent, perTick * ticks, err
}

// probeSend writes 16 KiB messages over one connection between two
// LAN hosts: conn write, pipe transmit, delivery and read.
func probeSend() (time.Duration, int, error) {
	const n, size = 20000, 16384
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	a, err := net.AddHostClass(ip.MustParseAddr("10.0.0.1"), topo.LAN)
	if err != nil {
		return 0, 0, err
	}
	b, err := net.AddHostClass(ip.MustParseAddr("10.0.0.2"), topo.LAN)
	if err != nil {
		return 0, 0, err
	}
	const port = 7000
	var got int
	var probeErr error
	k.Go("reader", func(p *sim.Proc) {
		l, err := b.Listen(p, port)
		if err != nil {
			probeErr = err
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			probeErr = err
			return
		}
		for got < n {
			if _, err := c.Recv(p); err != nil {
				probeErr = err
				return
			}
			got++
		}
	})
	k.Go("writer", func(p *sim.Proc) {
		c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: port})
		if err != nil {
			probeErr = err
			return
		}
		for i := 0; i < n; i++ {
			if err := c.SendMeta(p, size, nil); err != nil {
				probeErr = err
				return
			}
		}
	})
	start := time.Now()
	if err := k.Run(); err != nil {
		return 0, 0, err
	}
	el := time.Since(start)
	if probeErr == nil && got != n {
		probeErr = fmt.Errorf("delivered %d of %d messages", got, n)
	}
	return el, n, probeErr
}

// probePipeSchedule charges 1500-byte messages to one gigabit pipe.
func probePipeSchedule() (time.Duration, int, error) {
	const n = 1000000
	k := sim.New(1)
	p := netem.NewPipe(k, "probe", netem.PipeConfig{Bandwidth: netem.Gbps, Delay: time.Millisecond})
	rng := rand.New(rand.NewSource(1))
	at := sim.Time(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		at, _ = p.ScheduleAt(at, 1500, rng)
	}
	return time.Since(start), n, nil
}

// probeRuleEval classifies one packet against a 50k-rule firewall.
func probeRuleEval(classifier netem.Classifier, n int) (time.Duration, int, error) {
	src := ip.MustParseAddr("10.0.0.1")
	dst := ip.MustParseAddr("10.0.0.2")
	rs := netem.NewFillerTable(50000, classifier)
	rs.AddCount(ip.NewPrefix(src, 32), ip.Prefix{})
	start := time.Now()
	for i := 0; i < n; i++ {
		if v := rs.Eval(src, dst); len(v.Pipes) != 0 || v.Deny {
			return 0, 0, fmt.Errorf("unexpected verdict %+v", v)
		}
	}
	return time.Since(start), n, nil
}

// probeFlowChurn keeps 256 flows on one shared bottleneck under the
// per-event solver; each op is one completion plus one arrival.
func probeFlowChurn() (time.Duration, int, error) {
	const population, n = 256, 4000
	k := sim.New(1)
	m := flow.New(k)
	rng := rand.New(rand.NewSource(1))
	link := []*netem.Pipe{netem.NewPipe(k, "bottleneck", netem.PipeConfig{Bandwidth: 100 * netem.Mbps})}
	completed := 0
	var failed error
	var spawn func()
	spawn = func() {
		m.Transfer(k.Now(), 32*1024+rng.Intn(256*1024), link, k.Rand(), func(_ sim.Time, ok bool) {
			if !ok {
				failed = fmt.Errorf("flow dropped")
			}
			if completed++; completed < n {
				spawn()
			} else {
				k.Stop()
			}
		})
	}
	for i := 0; i < population; i++ {
		spawn()
	}
	start := time.Now()
	if err := k.Run(); err != nil {
		return 0, 0, err
	}
	return time.Since(start), completed, failed
}

// probePick selects a piece from a 1024-piece torrent with 40 known
// peers under rarest-first.
func probePick() (time.Duration, int, error) {
	const n = 200000
	rng := rand.New(rand.NewSource(1))
	pk := bt.NewPicker(1024, rng)
	pk.RandomFirstThreshold = 0
	for p := 0; p < 40; p++ {
		bf := bt.NewBitfield(1024)
		for i := 0; i < 1024; i++ {
			if rng.Intn(2) == 0 {
				bf.Set(i)
			}
		}
		pk.AddBitfield(bf)
	}
	have, peerHas := bt.NewBitfield(1024), bt.Full(1024)
	none := func(int) bool { return false }
	start := time.Now()
	for i := 0; i < n; i++ {
		if pk.Pick(have, peerHas, none) < 0 {
			return 0, 0, fmt.Errorf("no pick")
		}
	}
	return time.Since(start), n, nil
}

// probeTraceAdd records formatted events into a bounded trace log.
func probeTraceAdd() (time.Duration, int, error) {
	const n = 300000
	lg := trace.New(4096)
	start := time.Now()
	for i := 0; i < n; i++ {
		lg.Add(sim.Time(i), "net.send", "10.0.0.1", "%s->%s %d bytes", "10.0.0.1:6881", "10.0.0.2:6881", 16384)
	}
	return time.Since(start), n, nil
}
