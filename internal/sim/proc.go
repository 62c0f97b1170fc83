package sim

import "math/rand"

// Proc is the handle a simulated goroutine uses to interact with the
// kernel. Every function spawned with Kernel.Go or Proc.Go receives its
// own Proc; a Proc must only be used by the goroutine it was given to.
type Proc struct {
	k *Kernel
	t *task

	// wakeFn is the Sleep timer callback, bound lazily once per proc so
	// the hottest blocking primitive does not allocate a fresh closure
	// (plus an Event handle) on every call.
	wakeFn func()
}

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.t.name }

// Now returns the current virtual time. The read is unsynchronized but
// race-free: a Proc is only used by the goroutine it was granted to,
// which holds the execution token (see Kernel.LoopNow).
func (p *Proc) Now() Time {
	return p.k.now
}

// Rand returns the kernel's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.k.rng }

// Go spawns a child simulated goroutine. The child starts at the current
// virtual time once the scheduler next runs it.
func (p *Proc) Go(name string, fn func(p *Proc)) { p.k.Go(name, fn) }

// park blocks the calling task until another component wakes it via
// kernel.wake. The caller holds the execution token, so the blocked
// bookkeeping is mutex-free; sched hands the token on (or back to Run)
// and returns once this task is granted again.
//
// A task that has been killed (run ended at a horizon, Stop, or after a
// deadlock report) re-panics instead of blocking: this lets deferred
// cleanups that use blocking primitives (defer conn.Close(p)) unwind
// instantly rather than hang on a wake that will never come.
func (p *Proc) park() {
	k := p.k
	if p.t.killed {
		panic(killedPanic{})
	}
	p.t.blocked = true
	k.nBlock++
	k.blocked[p.t] = struct{}{}
	k.sched(p.t)
	if p.t.killed {
		panic(killedPanic{})
	}
}

// Sleep suspends the process for d of virtual time. Non-positive
// durations yield the processor to other runnable tasks at the same
// instant (a deterministic round-robin yield).
func (p *Proc) Sleep(d Duration) {
	k := p.k
	if p.wakeFn == nil {
		t := p.t
		p.wakeFn = func() { k.wake(t) }
	}
	// The timer push is mutex-free: the calling task holds the execution
	// token, which serializes every queue access (see Kernel.Schedule).
	at := k.now
	if d > 0 {
		at = at.Add(d)
	}
	k.push(at, p.wakeFn)
	p.park()
}

// Yield lets every other currently-runnable task proceed before this one
// continues, without advancing the clock.
func (p *Proc) Yield() { p.Sleep(0) }

// SleepUntil suspends the process until the given instant (or yields if
// the instant is not in the future).
func (p *Proc) SleepUntil(at Time) {
	now := p.Now()
	if at <= now {
		p.Yield()
		return
	}
	p.Sleep(at.Sub(now))
}
