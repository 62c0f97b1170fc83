//lint:allow kernelgo this file IS the concurrency boundary: the run-loop/park/wake machinery that native go/chan/sync exist to implement; everything above it uses sim primitives

// Package sim implements a deterministic virtual-time simulation kernel.
//
// The kernel multiplexes many simulated processes (real goroutines) onto a
// single logical timeline. Exactly one simulated goroutine executes at any
// real instant; the virtual clock advances only when every simulated
// goroutine is parked. This yields bit-for-bit reproducible runs for a
// fixed seed, which is the property the P2PLab paper calls "allowing
// reproduction of experiments".
//
// The two core abstractions are:
//
//   - Kernel: the event queue, the clock and the run loop.
//   - Proc: the handle a simulated goroutine uses to block (Sleep, Wait),
//     spawn children (Go) and observe time (Now).
//
// Blocking primitives (Cond, Chan, Semaphore) are built on top of the
// park/wake mechanism and are safe to use only from simulated goroutines.
//
// Determinism is a per-kernel property: one kernel is one serialized
// timeline, and nothing inside it may run concurrently. Experiment
// sweeps therefore parallelize across kernels — many independent
// Kernel instances on separate OS threads (see repro/internal/exp's
// sweep engine) — never within one.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Time is an absolute instant on the virtual timeline, in nanoseconds
// since the start of the simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// event is a scheduled callback. Callbacks run inside the kernel loop and
// must not block; they typically wake parked tasks or schedule more events.
//
// event structs are pooled on a per-kernel free list: after dispatch or
// cancellation the struct is recycled for the next schedule. gen
// distinguishes incarnations so a stale Event handle held across
// recycling can no longer cancel or reschedule the new occupant; a
// handle whose gen matches always refers to a queued event.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	fn   func()
	next *event // free-list link
	idx  int    // slot in the kernel's eventQueue while pending
	gen  uint64 // incarnation counter, bumped on recycle
}

// task is the kernel-side state of one simulated goroutine.
type task struct {
	name    string
	id      uint64        // spawn order; fixes the unwind order at kill time
	wake    chan struct{} // capacity 1; token grant
	blocked bool          // parked, waiting for a wake
	exited  bool
	killed  bool       // task should unwind instead of resuming
	cw      condWaiter // reusable Cond registration (one park at a time)
}

// killedPanic is the sentinel used to unwind tasks that are still parked
// when a run ends (horizon reached, Stop called, or deadlock reported).
type killedPanic struct{}

// Kernel is a deterministic discrete-event simulation kernel.
// Create one with New, spawn the root process with Go, then call Run.
//
// # Serialization discipline
//
// All kernel state below mu is owned by whoever holds the execution
// token: the one running simulated goroutine, the event callback the
// scheduler is dispatching, or the Run goroutine while no task runs.
// Token handoffs (wake-channel sends, the running/cond handshake with
// Run) each establish a happens-before edge, so token holders read and
// write this state without touching mu at all — on the per-message hot
// paths (Schedule, Chan, Cond, park/wake) the elided lock round-trips
// are a measurable share of event cost at 10k-peer scale.
//
// mu still guards the cold boundary where true concurrency can exist:
// the running/cond handshake itself, spawn (Go), Stop, the cancellable
// At/After/Event handles, and the external observers Now/Snapshot/
// QueueDepth (meaningful when the kernel is idle). Helpers suffixed
// "Locked" require mu; everything else requires the token.
type Kernel struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled when the running task yields

	now     Time
	seq     uint64
	events  eventQueue
	free    *event  // recycled event structs
	ready   []*task // runnable tasks, FIFO
	running bool    // a task currently holds the execution token
	nLive   int     // spawned and not yet exited
	nBlock  int     // parked tasks
	blocked map[*task]struct{}

	rng     *rand.Rand
	stopped bool
	halted  bool // a task-side scheduler hit the horizon; Run tears down
	limit   Time // 0 = no limit
	stats   Stats
}

// Stats counts kernel activity over a run; useful for throughput
// benchmarks and for validating experiment scale.
type Stats struct {
	Events   uint64 // callbacks dispatched
	Switches uint64 // task activations
	Spawns   uint64 // tasks created
}

// New returns a kernel whose random source is seeded with seed.
// The same seed and workload reproduce the same run exactly.
func New(seed int64) *Kernel {
	k := &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[*task]struct{}),
	}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// Now returns the current virtual time. Safe from any goroutine.
func (k *Kernel) Now() Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// LoopNow returns the current virtual time without synchronization.
// It is safe only from code holding the execution token — a running
// simulated goroutine or an event callback dispatched by the loop —
// because the clock is only written by the token holder and every
// prior write happened-before the token grant. Goroutines outside the
// simulation (observers, HTTP handlers) must use Now. On the
// per-message fast paths the mutex round-trip this elides is a
// measurable share of event cost.
//
//p2p:token
func (k *Kernel) LoopNow() Time { return k.now }

// Stats returns a snapshot of kernel activity counters.
func (k *Kernel) Snapshot() Stats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stats
}

// QueueDepth returns the number of pending events. Cancelled events
// are removed at once, so every queued event is live. Kept out of
// Stats: it is a health gauge, not part of a run's digest.
func (k *Kernel) QueueDepth() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.events)
}

// QueueResizes always returns 0: the binary-heap event queue never
// restructures itself. It survives for the perfbench harness, which
// still reports it as sim.queue_resizes.
func (k *Kernel) QueueResizes() uint64 { return 0 }

// Rand returns the kernel's deterministic random source. Because simulated
// goroutines execute one at a time, sharing one source is race-free and
// deterministic.
//
//p2p:token
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Go spawns a new simulated goroutine executing fn. It may be called
// before Run (to create the initial population) or from a running
// simulated goroutine. The child starts at the current virtual time,
// after the caller next yields.
//
//p2p:tokenentry spawn bookkeeping is under k.mu; the wrapper goroutine runs fn only after the scheduler grants the token via t.wake
//p2p:tokenarg
func (k *Kernel) Go(name string, fn func(p *Proc)) {
	t := &task{name: name, wake: make(chan struct{}, 1)}
	p := &Proc{k: k, t: t}
	k.mu.Lock()
	k.nLive++
	k.stats.Spawns++
	t.id = k.stats.Spawns
	k.ready = append(k.ready, t)
	k.mu.Unlock()
	go func() {
		<-t.wake // wait for the scheduler to grant the token
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					panic(r) // real panic from user code: propagate
				}
			}
			k.exit(t)
		}()
		if t.killed {
			return
		}
		fn(p)
	}()
}

// exit releases the execution token when a task's function returns.
// The dying task holds the token, so the bookkeeping is lock-free; the
// handback to Run (inside yield) takes mu.
//
//p2p:token
func (k *Kernel) exit(t *task) {
	t.exited = true
	k.nLive--
	k.yield()
}

// yield releases the execution token: if another task is ready (and
// the run is not stopping), the baton passes to it directly — the
// departing goroutine wakes the next one without a round-trip through
// the kernel goroutine, which halves the real context switches per
// activation. Otherwise control returns to the run loop via the
// running/cond handshake. Callers hold the execution token. The ready
// pop, FIFO order and Switches count are identical to the run loop's
// own grant, so the execution schedule — and therefore every trace —
// is unchanged.
//
//p2p:token
func (k *Kernel) yield() {
	if len(k.ready) > 0 && !k.stopped && !k.halted {
		t := k.ready[0]
		copy(k.ready, k.ready[1:])
		k.ready = k.ready[:len(k.ready)-1]
		k.stats.Switches++
		t.wake <- struct{}{}
		return
	}
	k.mu.Lock()
	k.running = false
	k.cond.Signal()
	k.mu.Unlock()
}

// sched advances the simulation on the calling (parking) task's own
// goroutine: it dispatches events and grants ready tasks exactly as
// the Run loop would, returning once self has been granted execution
// again. When the grant goes to another task — or the run must end
// (stop, horizon, deadlock, completion) and the Run goroutine has to
// take over — it blocks on self's wake token instead.
//
// This is a pure execution-mechanics optimization: the event pops,
// ready-queue order, Events/Switches counts and callback sequence are
// byte-for-byte those of the Run loop, so traces are unchanged. What
// changes is only which OS goroutine turns the crank — the common
// park→event→wake cycle costs one real context switch (zero when the
// dispatched event wakes the parker itself) instead of two round
// trips through the Run goroutine.
//
// Called by the parking task, which holds the execution token — the
// whole loop is mutex-free; only the teardown handback to Run takes
// mu (see the serialization-discipline note on Kernel).
//
//p2p:token
func (k *Kernel) sched(self *task) {
	for {
		if k.stopped || k.halted {
			break // Run tears down
		}
		if len(k.ready) > 0 {
			t := k.ready[0]
			copy(k.ready, k.ready[1:])
			k.ready = k.ready[:len(k.ready)-1]
			k.stats.Switches++
			if t == self {
				return // resumed: the execution token is ours again
			}
			t.wake <- struct{}{}
			<-self.wake
			return
		}
		if len(k.events) > 0 {
			if fn := k.next(); fn != nil {
				fn()
			}
			continue
		}
		break // no work: completion or deadlock — Run decides which
	}
	k.mu.Lock()
	k.running = false
	k.cond.Signal()
	k.mu.Unlock()
	<-self.wake
}

// next pops the earliest pending event, advances the clock to it and
// returns its callback. If that event lies past the RunUntil horizon it
// instead drops every pending event, stops the clock at the horizon,
// sets halted and returns nil. The queue must not be empty.
//
//p2p:token
func (k *Kernel) next() func() {
	if k.limit > 0 && k.events[0].at > k.limit {
		k.now = k.limit
		k.drain()
		k.halted = true
		return nil
	}
	ev := k.events.pop()
	k.now = ev.at
	k.stats.Events++
	fn := ev.fn
	k.recycle(ev)
	return fn
}

// At schedules fn to run at instant at (clamped to now if in the past).
// fn executes inside the kernel loop and must not block. It returns a
// handle that can cancel the event before it fires.
//
//p2p:tokenentry k.mu serializes the cold scheduling boundary against the run loop
//p2p:tokenarg
func (k *Kernel) At(at Time, fn func()) *Event {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.scheduleLocked(at, fn)
}

// After schedules fn to run d after the current virtual time.
//
//p2p:tokenentry k.mu serializes the cold scheduling boundary against the run loop
//p2p:tokenarg
func (k *Kernel) After(d Duration, fn func()) *Event {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.scheduleLocked(k.now.Add(d), fn)
}

// Schedule is At without the cancellable handle. The event struct itself
// is pooled, so for callers that never cancel — the per-packet hop and
// delivery events of the network layer — this path schedules with zero
// allocations, where At allocates one Event handle per call.
//
// Schedule elides the kernel mutex: it may only be called from code
// holding the execution token (a running simulated goroutine or an
// event callback), where pushes are serialized with every other queue
// access by the token's happens-before chain — the same contract as
// LoopNow. It is the highest-frequency kernel entry point (several
// calls per emulated message), so the two elided atomics are a
// measurable share of per-event cost. External goroutines must use At.
//
//p2p:token
//p2p:tokenarg
func (k *Kernel) Schedule(at Time, fn func()) {
	k.push(at, fn)
}

// scheduleLocked is the common body of At and After.
//
//p2p:tokenentry callers hold k.mu, which serializes the cold scheduling boundary
func (k *Kernel) scheduleLocked(at Time, fn func()) *Event {
	ev := k.push(at, fn)
	return &Event{k: k, ev: ev, gen: ev.gen}
}

// push takes an event struct off the free list (or allocates one) and
// queues it to run fn at instant at. Callers hold the execution token
// (or k.mu on the cold At/After paths — both serialize against every
// other queue access).
//
//p2p:token
func (k *Kernel) push(at Time, fn func()) *event {
	ev := k.free
	if ev != nil {
		k.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.fn = fn
	k.stamp(ev, at)
	k.events.push(ev)
	return ev
}

// stamp sets ev's instant (clamped to now if in the past) and gives it
// the next seq, i.e. the last place in that instant's FIFO order. Same
// serialization contract as push.
//
//p2p:token
func (k *Kernel) stamp(ev *event, at Time) {
	if at < k.now {
		at = k.now
	}
	ev.at, ev.seq = at, k.seq
	k.seq++
}

// recycle returns a dispatched or cancelled event struct to the free
// list. Same serialization contract as push; ev must no longer be
// queued.
//
//p2p:token
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.next = k.free
	k.free = ev
}

// cancel removes the pending event ev from the queue and recycles it.
// Same serialization contract as push.
//
//p2p:token
func (k *Kernel) cancel(ev *event) {
	k.events.remove(ev)
	k.recycle(ev)
}

// Event is a cancellable handle to a scheduled callback.
type Event struct {
	k   *Kernel
	ev  *event
	gen uint64 // incarnation the handle refers to
}

// Cancel prevents the callback from running if it has not fired yet,
// removing it from the queue at once. It reports whether the
// cancellation took effect.
//
//p2p:tokenentry holds e.k.mu for the whole removal, same contract as At
func (e *Event) Cancel() bool {
	if e == nil || e.ev == nil {
		return false
	}
	e.k.mu.Lock()
	defer e.k.mu.Unlock()
	if e.ev.gen != e.gen {
		return false // fired or cancelled: recycled, which bumped gen
	}
	e.k.cancel(e.ev)
	return true
}

// Reschedule moves a still-pending callback to instant at (clamped to
// now if in the past), preserving the callback but taking a fresh
// position in the same-instant FIFO order, exactly as if the event had
// been cancelled and scheduled anew. The event is moved in place. It
// reports whether the move took effect; a fired or cancelled event is
// not revived.
//
//p2p:tokenentry holds e.k.mu for the whole move, same contract as At
func (e *Event) Reschedule(at Time) bool {
	if e == nil || e.ev == nil {
		return false
	}
	e.k.mu.Lock()
	defer e.k.mu.Unlock()
	if e.ev.gen != e.gen {
		return false // fired or cancelled: recycled, which bumped gen
	}
	e.k.stamp(e.ev, at)
	e.k.events.fix(e.ev.idx)
	return true
}

// DeadlockError is returned by Run when simulated goroutines remain
// parked but no event can ever wake them.
type DeadlockError struct {
	Now     Time
	Blocked []string // names of parked tasks
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d task(s) parked forever: %s",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes the simulation until no work remains: every task has
// exited and the event queue is empty (events scheduled beyond RunUntil's
// limit are discarded). It returns a *DeadlockError if tasks are parked
// with no pending events, and nil otherwise. Run must be called from a
// non-simulated goroutine, exactly once.
//
//p2p:tokenentry the Run goroutine owns the token whenever no task is running (running/cond handshake)
func (k *Kernel) Run() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for {
		if k.stopped {
			k.killAllLocked()
			return nil
		}
		if k.halted {
			// The horizon was crossed, here or in a task-side scheduler
			// (sched): events are already drained, only the teardown is
			// left.
			k.halted = false
			k.killAllLocked()
			return nil
		}
		// 1. Run every ready task to its next park point, in FIFO order.
		if len(k.ready) > 0 {
			t := k.ready[0]
			copy(k.ready, k.ready[1:])
			k.ready = k.ready[:len(k.ready)-1]
			k.running = true
			k.stats.Switches++
			t.wake <- struct{}{}
			for k.running {
				k.cond.Wait()
			}
			continue
		}
		// 2. Advance the clock to the next event batch.
		if len(k.events) > 0 {
			if fn := k.next(); fn != nil {
				// Callbacks run without the kernel lock: no simulated
				// goroutine is executing at this point (ready is empty
				// and running is false), so callbacks may freely use the
				// public blocking-free API (Cond.Signal, Kernel.At, ...).
				k.mu.Unlock()
				fn()
				k.mu.Lock()
			}
			continue
		}
		// 3. Nothing runnable, nothing scheduled.
		if k.nBlock > 0 {
			names := make([]string, 0, len(k.blocked))
			//lint:allow maporder collected names are sorted below before use
			for t := range k.blocked {
				names = append(names, t.name)
			}
			sort.Strings(names)
			err := &DeadlockError{Now: k.now, Blocked: names}
			k.killAllLocked()
			return err
		}
		return nil
	}
}

// killAllLocked unwinds every remaining task (parked or ready) so a
// finished run leaks no goroutines. Unwound tasks panic with a sentinel
// that the Go wrapper recovers; deferred cleanups (conn.Close and the
// like) run during that unwind, so tasks are unwound strictly one at a
// time — ready tasks in FIFO order, then parked tasks in spawn order —
// keeping the one-goroutine-at-a-time invariant (and therefore
// determinism and race-freedom) through teardown. Callers hold k.mu;
// on return nLive is zero.
//
//p2p:tokenentry callers hold k.mu and no task is running during teardown
func (k *Kernel) killAllLocked() {
	victims := append([]*task(nil), k.ready...)
	k.ready = nil
	parked := make([]*task, 0, len(k.blocked))
	//lint:allow maporder collected tasks are sorted by spawn id below before unwinding
	for t := range k.blocked {
		t.blocked = false
		delete(k.blocked, t)
		k.nBlock--
		parked = append(parked, t)
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].id < parked[j].id })
	victims = append(victims, parked...)
	for _, t := range victims {
		t.killed = true
		k.running = true
		t.wake <- struct{}{}
		for k.running {
			k.cond.Wait()
		}
	}
	for k.nLive > 0 {
		k.cond.Wait()
	}
}

// RunUntil executes the simulation like Run but stops once virtual time
// would pass limit. Tasks still parked at the horizon are abandoned (the
// usual way to end an open-ended experiment such as a swarm download).
func (k *Kernel) RunUntil(limit Time) error {
	k.mu.Lock()
	k.limit = limit
	k.mu.Unlock()
	err := k.Run()
	var dl *DeadlockError
	if e, ok := err.(*DeadlockError); ok {
		dl = e
	}
	// A horizon-limited run treats parked-forever tasks as "experiment
	// over", not an error, as long as the horizon was actually reached.
	if dl != nil && k.Now() >= limit {
		return nil
	}
	return err
}

// drain discards all pending events. Same serialization contract as
// push.
//
//p2p:token
func (k *Kernel) drain() {
	for _, ev := range k.events {
		k.recycle(ev)
	}
	clear(k.events)
	k.events = k.events[:0]
}

// Stop aborts the run loop at the next scheduling point. Safe to call
// from event callbacks or simulated goroutines.
func (k *Kernel) Stop() {
	k.mu.Lock()
	k.stopped = true
	k.mu.Unlock()
}

// wake moves a parked task to the ready queue. Callers hold the
// execution token (wakes are triggered by running tasks and event
// callbacks only).
//
//p2p:token
func (k *Kernel) wake(t *task) {
	if !t.blocked || t.exited {
		return
	}
	t.blocked = false
	k.nBlock--
	delete(k.blocked, t)
	k.ready = append(k.ready, t)
}
