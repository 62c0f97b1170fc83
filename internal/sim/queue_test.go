package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refQueue is the reference model of the kernel's event queue: the
// pending events, by id, in a slice kept sorted by (at, seq), under the
// kernel's clamp-to-now and next-seq rules.
type refQueue struct {
	evs []refEvent
	seq uint64
}

type refEvent struct {
	id  int
	at  Time
	seq uint64
}

func (r *refQueue) insert(id int, at, now Time) {
	at = max(at, now)
	// The new seq is the largest yet: the event goes after every event
	// at or before its instant.
	i := sort.Search(len(r.evs), func(i int) bool { return r.evs[i].at > at })
	r.evs = slices.Insert(r.evs, i, refEvent{id, at, r.seq})
	r.seq++
}

// remove drops event id and reports whether it was pending.
func (r *refQueue) remove(id int) (refEvent, bool) {
	i := slices.IndexFunc(r.evs, func(e refEvent) bool { return e.id == id })
	if i < 0 {
		return refEvent{}, false
	}
	e := r.evs[i]
	r.evs = slices.Delete(r.evs, i, i+1)
	return e, true
}

// TestQueueMatchesReference drives kernels with random At, After,
// Schedule, Cancel and Reschedule calls — same-instant bursts, moves
// earlier, later, to the same instant and into the past, handles that
// already fired or were cancelled, and events past the RunUntil horizon
// — against the sorted-slice reference. Every dispatch must be the
// reference's earliest event, and after every operation the queue must
// hold exactly the reference's pending events: no tombstones.
func TestQueueMatchesReference(t *testing.T) {
	outcomes := map[[2]bool]int{} // {is Reschedule, returned} -> count
	for seed := int64(1); seed <= 10; seed++ {
		driveAgainstReference(t, seed, outcomes)
	}
	if len(outcomes) != 4 {
		t.Errorf("not every Cancel/Reschedule outcome was exercised: %v", outcomes)
	}
}

func driveAgainstReference(t *testing.T, seed int64, outcomes map[[2]bool]int) {
	const horizon, budget = Time(time.Second), 1500
	rng := rand.New(rand.NewSource(seed))
	k := New(seed)
	ref := &refQueue{}
	var handles []*Event // by event id; nil for Schedule'd events
	failed := false
	fail := func(format string, args ...any) {
		if !failed {
			failed = true
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			k.Stop()
		}
	}
	check := func(op string) {
		q := slices.Clone(k.events)
		slices.SortFunc(q, func(a, b *event) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		if len(q) != len(ref.evs) {
			fail("after %s: queue holds %d events, reference %d", op, len(q), len(ref.evs))
			return
		}
		for i, ev := range q {
			if r := ref.evs[i]; ev.at != r.at || ev.seq != r.seq {
				fail("after %s: pending #%d is (%v, %d), reference (%v, %d)", op, i, ev.at, ev.seq, r.at, r.seq)
				return
			}
		}
	}
	pick := func() Time {
		switch rng.Intn(8) {
		case 0:
			return k.now
		case 1:
			return k.now - Time(rng.Intn(int(time.Millisecond))) // clamped
		case 2:
			return horizon + Time(rng.Int63n(int64(time.Hour)))
		}
		return k.now + Time(rng.Intn(int(20*time.Millisecond)))
	}

	ops := 0
	var fire func(id int) func()
	schedule := func(at Time) {
		id := len(handles)
		ref.insert(id, at, k.now)
		switch rng.Intn(3) {
		case 0:
			handles = append(handles, k.At(at, fire(id)))
		case 1:
			handles = append(handles, k.After(at.Sub(k.now), fire(id)))
		default:
			k.Schedule(at, fire(id))
			handles = append(handles, nil)
		}
		check("schedule")
	}
	step := func() {
		ops++
		switch op := rng.Intn(10); {
		case op < 4 || len(handles) == 0:
			schedule(pick())
		case op == 4: // same-instant burst
			at := pick()
			for n := 2 + rng.Intn(10); n > 0; n-- {
				schedule(at)
			}
		default:
			id := rng.Intn(len(handles))
			h := handles[id]
			if h == nil {
				return
			}
			old, want := ref.remove(id)
			var got bool
			if op < 7 {
				got = h.Cancel()
			} else {
				at := pick()
				if want && rng.Intn(4) == 0 {
					at = old.at // same instant: to the back of its FIFO
				}
				if got = h.Reschedule(at); want {
					ref.insert(id, at, k.now)
				}
			}
			outcomes[[2]bool{op >= 7, got}]++
			if got != want {
				fail("op %d on event %d returned %v, want %v", op, id, got, want)
			}
			check("cancel/reschedule")
		}
	}
	fire = func(id int) func() {
		return func() {
			if len(ref.evs) == 0 || ref.evs[0].id != id || ref.evs[0].at != k.now {
				fail("dispatched event %d at %v out of reference order", id, k.now)
				return
			}
			ref.evs = ref.evs[1:]
			check("dispatch")
			for n := rng.Intn(4); n > 0 && ops < budget; n-- {
				step()
			}
		}
	}

	for i := 0; i < 50; i++ {
		step()
	}
	if err := k.RunUntil(horizon); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, e := range ref.evs {
		if e.at <= horizon {
			fail("event %d at %v never fired", e.id, e.at)
		}
	}
	if len(k.events) != 0 {
		fail("%d events left in the queue after the horizon", len(k.events))
	}
}

// TestCalQueueMatchesHeap drives the event queue through a randomized
// kernel-shaped push/pop schedule (pushes never go below the last
// popped instant, mirroring the kernel's clamp) and checks every pop
// against the sorted-slice reference. Unlike TestQueueMatchesReference
// it exercises the heap directly, with no kernel around it, and at a
// larger scale.
func TestCalQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	ref := &refQueue{}
	now := Time(0)
	popCheck := func(where string, step int) {
		ev := q.pop()
		r := ref.evs[0]
		ref.evs = ref.evs[1:]
		if ev.at != r.at || ev.seq != r.seq {
			t.Fatalf("%s %d: queue popped (at=%v seq=%d), reference (at=%v seq=%d)",
				where, step, ev.at, ev.seq, r.at, r.seq)
		}
		now = ev.at
	}
	for step := 0; step < 200000; step++ {
		if len(q) == 0 || rng.Intn(3) != 0 {
			var at Time
			switch rng.Intn(10) {
			case 0: // same instant: FIFO tie-break territory
				at = now
			case 1: // far future: large gaps between pending events
				at = now + Time(time.Hour)*Time(1+rng.Intn(100))
			default: // clustered near now, the common case
				at = now + Time(rng.Intn(int(50*time.Microsecond)))
			}
			q.push(&event{at: at, seq: ref.seq})
			ref.insert(0, at, now)
		} else {
			popCheck("step", step)
		}
	}
	for i := 0; len(q) > 0; i++ {
		popCheck("drain", i)
	}
	if len(ref.evs) != 0 {
		t.Fatalf("reference retains %d events after the queue drained", len(ref.evs))
	}
}

// TestCalQueueSameInstantFIFO checks that a burst at one instant comes
// back in schedule order.
func TestCalQueueSameInstantFIFO(t *testing.T) {
	var q eventQueue
	for i := 0; i < 1000; i++ {
		q.push(&event{at: 12345, seq: uint64(i)})
	}
	for i := 0; i < 1000; i++ {
		ev := q.pop()
		if ev.seq != uint64(i) {
			t.Fatalf("pop %d: got seq %d", i, ev.seq)
		}
	}
}

// TestCalQueueSparseFarFuture checks ordering across a handful of
// events separated by enormous gaps.
func TestCalQueueSparseFarFuture(t *testing.T) {
	var q eventQueue
	ats := []Time{
		Time(365 * 24 * time.Hour),
		Time(time.Nanosecond),
		Time(100 * 365 * 24 * time.Hour),
		Time(time.Hour),
	}
	for i, at := range ats {
		q.push(&event{at: at, seq: uint64(i)})
	}
	want := []Time{ats[1], ats[3], ats[0], ats[2]}
	for i, w := range want {
		ev := q.pop()
		if ev.at != w {
			t.Fatalf("pop %d: got at=%v, want %v", i, ev.at, w)
		}
	}
	if len(q) != 0 {
		t.Fatalf("queue holds %d events after every push was popped", len(q))
	}
}

// TestEventHandleStaleAfterRecycle checks that a handle acts only on
// the pending event it was issued for: a second Cancel fails, and a
// handle to a fired or cancelled event can neither cancel nor move the
// recycled struct's next occupant (the free list is LIFO, so the next
// schedule reuses the struct).
func TestEventHandleStaleAfterRecycle(t *testing.T) {
	k := New(1)
	fired := make(map[string]bool)
	h1 := k.After(time.Millisecond, func() { fired["first"] = true })
	k.After(2*time.Millisecond, func() {
		stale := k.After(time.Hour, func() { fired["cancelled"] = true })
		if !stale.Cancel() || stale.Cancel() {
			t.Error("want the first Cancel to succeed and the second to fail")
		}
		next := k.After(time.Millisecond, func() { fired["second"] = true })
		if next.ev != stale.ev {
			t.Error("free list did not reuse the cancelled struct")
		}
		for _, h := range []*Event{h1, stale} {
			if h.Cancel() || h.Reschedule(k.Now().Add(time.Hour)) {
				t.Error("a stale handle cancelled or moved an event")
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired["first"] || !fired["second"] || fired["cancelled"] || k.Now() != Time(3*time.Millisecond) {
		t.Fatalf("fired = %v, ended at %v; want first and second only, at 3ms", fired, k.Now())
	}
}

// TestEventReschedule moves a timer forward and backward and checks the
// callback fires exactly once, at the rescheduled instant, in fresh
// FIFO position.
func TestEventReschedule(t *testing.T) {
	k := New(1)
	var order []string
	at := func(name string) func() {
		return func() { order = append(order, name) }
	}
	ev := k.At(Time(10*time.Millisecond), at("moved"))
	toNow := k.At(Time(time.Hour), at("to-now"))
	k.At(Time(5*time.Millisecond), at("five"))
	k.At(Time(20*time.Millisecond), at("twenty"))
	k.At(0, func() {
		// Move the 10ms timer to 20ms: it must now fire after the
		// pre-existing 20ms event (fresh seq).
		if !ev.Reschedule(Time(20 * time.Millisecond)) {
			t.Error("Reschedule of pending event failed")
		}
	})
	k.At(Time(5*time.Millisecond), func() {
		// Moved to the current instant, it runs after the events
		// already queued at that instant.
		if !toNow.Reschedule(k.Now()) {
			t.Error("Reschedule to now failed")
		}
	})
	k.At(Time(5*time.Millisecond), at("five-b"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[five five-b to-now twenty moved]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	// A fired event cannot be revived.
	if ev.Reschedule(Time(time.Hour)) {
		t.Error("Reschedule of fired event reported success")
	}
}

// TestCancelledEventRecycled checks cancelled events leave the queue
// at once and their structs are reused without disturbing later
// events.
func TestCancelledEventRecycled(t *testing.T) {
	k := New(1)
	n := 0
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, k.After(time.Duration(i+1)*time.Millisecond, func() { n++ }))
	}
	for i, ev := range evs {
		if i%2 == 0 && !ev.Cancel() {
			t.Fatalf("cancel %d failed", i)
		}
	}
	if len(k.events) != 50 {
		t.Fatalf("%d events queued after cancelling half of 100", len(k.events))
	}
	for i := 0; i < 50; i++ {
		k.After(time.Duration(i+1)*time.Microsecond, func() { n++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("fired %d callbacks, want 100", n)
	}
}
