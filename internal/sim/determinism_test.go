package sim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// determinismWorkload is a deliberately messy mix of everything the
// event queue must order: parked goroutines with tie-heavy sleep
// durations, timers that get cancelled and rescheduled mid-run, and
// far-future events that fall off the horizon. Every observable step is
// written to a trace log.
func determinismWorkload(seed int64) (string, sim.Stats, error) {
	k := sim.New(seed)
	lg := trace.New(0)

	// Tie-heavy sleepers: coarse sleep quanta force many same-instant
	// wakeups whose relative order is pure (at, seq) FIFO.
	for i := 0; i < 8; i++ {
		k.Go(fmt.Sprintf("worker-%d", i), func(p *sim.Proc) {
			for j := 0; j < 60; j++ {
				p.Sleep(time.Duration(p.Rand().Intn(4)) * time.Millisecond)
				lg.Add(p.Now(), "step", p.Name(), "j=%d", j)
			}
		})
	}

	// Timers scheduled on a coarse lattice (more ties), a third of which
	// are later cancelled and a third rescheduled.
	var timers []*sim.Event
	for i := 0; i < 48; i++ {
		i := i
		at := sim.Time(i%6) * sim.Time(20*time.Millisecond)
		timers = append(timers, k.At(at, func() {
			lg.Add(k.Now(), "timer", "", "i=%d", i)
		}))
	}
	k.After(30*time.Millisecond, func() {
		lg.Add(k.Now(), "perturb", "", "cancel+reschedule")
		for i, ev := range timers {
			switch i % 3 {
			case 0:
				ev.Cancel()
			case 1:
				ev.Reschedule(k.Now().Add(time.Duration(i) * time.Millisecond))
			}
		}
	})

	// Far-future events, past the horizon: they must be discarded
	// without ever firing.
	for i := 0; i < 16; i++ {
		i := i
		k.At(sim.Time(400*24*time.Hour)+sim.Time(i), func() {
			lg.Add(k.Now(), "far", "", "i=%d", i)
		})
	}

	err := k.RunUntil(sim.Time(5 * time.Second))
	var buf bytes.Buffer
	if rerr := lg.Render(&buf); rerr != nil {
		return "", sim.Stats{}, rerr
	}
	return buf.String(), k.Snapshot(), err
}

// TestQueueSwapPreservesDeterminism pins the workload's trace digests
// for seeds 1-5 as recorded under the calendar queue with lazily
// removed tombstones, which the in-place binary heap replaced: the
// swap must not move a single cancelled, rescheduled or tied event.
func TestQueueSwapPreservesDeterminism(t *testing.T) {
	want := []string{
		"a84685464c2492dcc3c4f9be96d71d7012735d449dcf746db97e50d4a3087be2",
		"d5cb4459a4b3b914bb1c00352552d3fe320ed61db72128cabb858f170ddea56d",
		"444f2842af74f4179427171ea7c224aa247b0f6b6a5bc20387a7db13cc7f3416",
		"ae7e377e2d81445aef4ab76e965b44c68b956261a2f9dee30478e75c462182fb",
		"b7c3fbba9220bbf54892b96d59bf7b9a75f9ea211a24f3e06b0045659f6884b0",
	}
	for i, w := range want {
		trace, stats, err := determinismWorkload(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != w {
			t.Errorf("seed %d: trace digest %s, recorded %s", i+1, got, w)
		}
		if want := (sim.Stats{Events: 521, Switches: 488, Spawns: 8}); stats != want {
			t.Errorf("seed %d: stats %+v, recorded %+v", i+1, stats, want)
		}
	}
}

// TestSameKindRunsAreIdentical is the baseline reproducibility check:
// the same seed gives the same bytes run over run.
func TestSameKindRunsAreIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, as, err := determinismWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, bs, err := determinismWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || as != bs {
			t.Errorf("seed %d: repeated run diverged", seed)
		}
		if !strings.Contains(a, "perturb") {
			t.Fatalf("seed %d: workload never reached the cancel/reschedule phase", seed)
		}
		if strings.Contains(a, "far") {
			t.Fatalf("seed %d: far-future event fired inside the horizon", seed)
		}
	}
}
